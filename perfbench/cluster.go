package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/metrics"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/transport"
)

// faults is the fault bound every workload's groups run with: n = 3f+1
// = 4 replicas per group.
const faults = 1

// group is one BFT replica group under load, in-process or over TCP
// loopback. reg is nil in untraced runs.
type group struct {
	id       string
	services []*bft.SpaceService
	replicas []*bft.Replica
	reg      *metrics.Registry

	cluster *bft.Cluster // in-process groups

	// TCP groups.
	ids     []string
	addrs   map[string]string
	master  []byte
	trs     []*transport.TCP // replica transports, then client transports
	dirs    []string         // durable data directories, one per replica
	stopped bool
}

// newInprocGroup starts a group over the in-process network. A
// non-empty gid makes it one group of a partitioned deployment with
// directory dir.
func newInprocGroup(pol policy.Policy, tr *tracer, gid string, dir bft.Directory, attestMaster []byte) (*group, error) {
	g := &group{id: gid}
	svcs := make([]bft.Service, 3*faults+1)
	for i := range svcs {
		svc, err := bft.NewSpaceServiceWithConfig(pol, space.EngineIndexed, 1)
		if err != nil {
			return nil, err
		}
		if gid != "" {
			svc.EnablePartition(gid, dir)
		}
		svcs[i] = svc
		g.services = append(g.services, svc)
	}
	var opts []bft.ClusterOption
	if gid != "" {
		opts = append(opts, bft.WithGroupIdentity(gid, attestMaster))
	}
	if tr != nil {
		g.reg = metrics.New()
		opts = append(opts, bft.WithMetrics(g.reg), bft.WithEventSink(tr.sink(gid)))
	}
	cl, err := bft.NewCluster(faults, svcs, opts...)
	if err != nil {
		return nil, err
	}
	g.cluster, g.replicas = cl, cl.Replicas
	return g, nil
}

// newTCPGroup starts a group of durable replicas over TCP loopback,
// each replica's WAL in its own directory under root with the interval
// (group-commit) fsync policy — the cmd/peats-server deployment,
// in-process. clients lists the identities provisioned with keys.
func newTCPGroup(pol policy.Policy, tr *tracer, root string, clients []string) (g *group, err error) {
	n := 3*faults + 1
	g = &group{master: []byte("perfbench-tcp"), addrs: make(map[string]string)}
	defer func() {
		if err != nil {
			g.stop()
		}
	}()
	for i := 0; i < n; i++ {
		g.ids = append(g.ids, fmt.Sprintf("r%d", i))
	}
	everyone := append(append([]string(nil), g.ids...), clients...)
	for _, id := range g.ids {
		kr := auth.NewKeyringFromMaster(g.master, id, everyone)
		t, err := transport.NewTCP(id, "127.0.0.1:0", nil, kr)
		if err != nil {
			return g, err
		}
		g.trs = append(g.trs, t)
		g.addrs[id] = t.Addr()
	}
	for _, t := range g.trs {
		for id, addr := range g.addrs {
			t.SetPeerAddr(id, addr)
		}
	}
	if tr != nil {
		g.reg = metrics.New()
	}
	for i, id := range g.ids {
		dir := filepath.Join(root, id)
		g.dirs = append(g.dirs, dir)
		svc, err := openDurableService(pol, dir)
		if err != nil {
			return g, err
		}
		g.services = append(g.services, svc)
		cfg := bft.ReplicaConfig{
			ID: id, Replicas: g.ids, F: faults,
			Transport: g.trs[i],
			Service:   svc,
			Keyring:   auth.NewKeyringFromMaster(g.master, id, everyone),
			Metrics:   g.reg,
		}
		if tr != nil {
			cfg.EventSink = tr.sink("")
		}
		rep, err := bft.NewReplica(cfg)
		if err != nil {
			return g, err
		}
		rep.Start()
		g.replicas = append(g.replicas, rep)
	}
	return g, nil
}

func openDurableService(pol policy.Policy, dir string) (*bft.SpaceService, error) {
	db, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncInterval, AutoCompactBytes: -1})
	if err != nil {
		return nil, err
	}
	svc, err := bft.NewDurableSpaceService(pol, db, 1)
	if err != nil {
		db.Close()
		return nil, err
	}
	return svc, nil
}

// client returns a replicated-space handle for identity id.
func (g *group) client(id string) (*bft.RemoteSpace, error) {
	if g.cluster != nil {
		return bft.NewRemoteSpace(g.cluster.Client(id)), nil
	}
	kr := auth.NewKeyringFromMaster(g.master, id, g.ids)
	t, err := transport.NewTCP(id, "127.0.0.1:0", g.addrs, kr)
	if err != nil {
		return nil, err
	}
	g.trs = append(g.trs, t)
	c := bft.NewClient(t, g.ids, faults)
	c.Keyring = kr
	return bft.NewRemoteSpace(c), nil
}

// tcpStats sums the load counters of every TCP endpoint of the group,
// replicas and clients.
func (g *group) tcpStats() transport.TCPStats {
	var s transport.TCPStats
	for _, t := range g.trs {
		x := t.Stats()
		s.FramesSent += x.FramesSent
		s.Writes += x.Writes
		s.BytesSent += x.BytesSent
		s.Backpressure += x.Backpressure
	}
	return s
}

// quiesce waits until every replica has executed the same sequence
// number and it has stopped moving.
func (g *group) quiesce(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	var last uint64
	steady := 0
	for steady < 5 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("group %q did not quiesce: %w", g.id, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
		first := g.replicas[0].Executed()
		same := true
		for _, r := range g.replicas[1:] {
			same = same && r.Executed() == first
		}
		if same && first == last {
			steady++
		} else {
			steady = 0
		}
		last = first
	}
	return nil
}

// snapshotsAgree checks that every replica's service snapshot is
// byte-identical, after quiescing.
func snapshotsAgree(snaps [][]byte) error {
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			return fmt.Errorf("replica %d snapshot (%d bytes) differs from replica 0 (%d bytes)",
				i, len(snaps[i]), len(snaps[0]))
		}
	}
	return nil
}

func (g *group) snapshots() [][]byte {
	out := make([][]byte, len(g.services))
	for i, s := range g.services {
		out[i] = s.Snapshot()
	}
	return out
}

// stop shuts the group down and closes every service; durable services
// flush and close their WALs.
func (g *group) stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	if g.cluster != nil {
		g.cluster.Stop()
		return
	}
	for _, r := range g.replicas {
		r.Stop()
	}
	for _, t := range g.trs {
		_ = t.Close() // shutdown path: nothing is in flight
	}
	for _, s := range g.services {
		_ = s.Close() // reopening the directory reports any loss
	}
}
