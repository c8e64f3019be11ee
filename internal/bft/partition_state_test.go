package bft

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// testTopology is a two-group directory whose attestation keys the test
// holds, so it can forge any certificate an honest deployment could
// produce (one replica per group, F=0, so one signature is a quorum).
type testTopology struct {
	master []byte
	dir    Directory
}

func newTestTopology(groups ...string) testTopology {
	tp := testTopology{master: []byte("partition-state-test-master"), dir: Directory{}}
	for _, g := range groups {
		tp.quorumGroup(g, 0)
	}
	return tp
}

// cert wraps outcome bytes in a quorum certificate of the named group.
func (tp testTopology) cert(group string, outcome []byte) wire.VoteCert {
	return tp.certBy(group, outcome, "r0")
}

// prepareTx runs a prepare through ordered execution and returns the
// raw reply (usable as certificate outcome bytes) plus its decoding.
func prepareTx(t *testing.T, svc *SpaceService, client, txID string, parts []string, ops []wire.SpaceOp) ([]byte, wire.TxOutcome) {
	t.Helper()
	raw := svc.Execute(client, wire.EncodeTxPrepare(wire.TxPrepare{
		TxID: txID, Participants: parts, Ops: ops,
	}))
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("prepare %s: %v", txID, err)
	}
	return raw, o
}

func decideTx(t *testing.T, svc *SpaceService, d wire.TxDecision) wire.TxOutcome {
	t.Helper()
	raw := svc.Execute("anyone", wire.EncodeTxDecision(d))
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("decision %s: %v", d.TxID, err)
	}
	return o
}

func statusTx(t *testing.T, svc *SpaceService, txID string) wire.TxOutcome {
	t.Helper()
	raw := svc.Execute("anyone", wire.EncodeTxStatus(wire.TxStatus{TxID: txID}))
	o, err := wire.DecodeTxOutcome(raw)
	if err != nil {
		t.Fatalf("status %s: %v", txID, err)
	}
	return o
}

// TestReservationCommitRebindsEqualValues is the regression for the
// copy-stealing bug: two transactions reserve equal-valued tuples, and
// the one prepared *second* commits first. Its value-addressed commit
// consumes the earliest stored copy — the one the first reservation's
// frozen sequence named. Without re-binding, the first transaction is
// left freezing a dead sequence while its surviving copy sits exposed:
// an ordinary inp steals it and the first transaction's justified
// commit panics the replica. With re-binding, the survivor stays
// frozen and both commits land.
func TestReservationCommitRebindsEqualValues(t *testing.T) {
	tp := newTestTopology("g0")
	svc := NewSpaceService(policy.AllowAll())
	svc.EnablePartition("g0", tp.dir)

	v := tuple.T(tuple.Str("A"), tuple.Int(1))
	for i := 0; i < 2; i++ {
		if res := execOp(t, svc, "c1", wire.SpaceOp{Op: policy.OpOut, Entry: v}); res.Status != wire.StatusOK {
			t.Fatalf("out %d: %+v", i, res)
		}
	}
	inpV := []wire.SpaceOp{{Op: policy.OpInp, Template: v}}

	_, o1 := prepareTx(t, svc, "c1", "c1:1:aa", []string{"g0"}, inpV)
	if o1.State != wire.TxVoteYes {
		t.Fatalf("t1 vote: %+v", o1)
	}
	raw2, o2 := prepareTx(t, svc, "c2", "c2:1:bb", []string{"g0"}, inpV)
	if o2.State != wire.TxVoteYes {
		t.Fatalf("t2 vote: %+v", o2)
	}

	// Commit the second transaction first: inverse decision order.
	if o := decideTx(t, svc, wire.TxDecision{
		TxID: "c2:1:bb", Commit: true, Certs: []wire.VoteCert{tp.cert("g0", raw2)},
	}); o.State != wire.TxCommitted {
		t.Fatalf("t2 commit: %+v", o)
	}

	// The surviving copy belongs to t1's reservation: an ordinary inp
	// must not see it. Pre-fix it was exposed and stolen here.
	if res := execOp(t, svc, "c3", wire.SpaceOp{Op: policy.OpInp, Template: v}); res.Found {
		t.Fatal("ordinary inp stole a reserved copy")
	}

	// t1's justified commit must land on the re-bound copy. Pre-fix this
	// panicked: "space: staged removal lost its target". The stored YES
	// outcome is refetched via status — byte-identical to the prepare
	// reply, per the status contract — and wrapped in a certificate.
	raw1 := svc.Execute("anyone", wire.EncodeTxStatus(wire.TxStatus{TxID: "c1:1:aa"}))
	if o := decideTx(t, svc, wire.TxDecision{
		TxID: "c1:1:aa", Commit: true, Certs: []wire.VoteCert{tp.cert("g0", raw1)},
	}); o.State != wire.TxCommitted {
		t.Fatalf("t1 commit: %+v", o)
	}
	if n := svc.Space().Len(); n != 0 {
		t.Fatalf("space holds %d tuples after both commits, want 0", n)
	}
}

// TestDecidedTableGC bounds the decided table under status-probe spam:
// aborted pins are evicted oldest-first once they exceed
// maxAbortedDecided, committed records are never evicted, and an
// evicted ID still answers aborted when re-probed (presumed abort makes
// eviction invisible).
func TestDecidedTableGC(t *testing.T) {
	tp := newTestTopology("g0")
	svc := NewSpaceService(policy.AllowAll())
	svc.EnablePartition("g0", tp.dir)

	v := tuple.T(tuple.Str("K"), tuple.Int(7))
	if res := execOp(t, svc, "c1", wire.SpaceOp{Op: policy.OpOut, Entry: v}); res.Status != wire.StatusOK {
		t.Fatalf("out: %+v", res)
	}
	rawP, oP := prepareTx(t, svc, "c1", "c1:1:aa", []string{"g0"},
		[]wire.SpaceOp{{Op: policy.OpInp, Template: v}})
	if oP.State != wire.TxVoteYes {
		t.Fatalf("prepare: %+v", oP)
	}
	if o := decideTx(t, svc, wire.TxDecision{
		TxID: "c1:1:aa", Commit: true, Certs: []wire.VoteCert{tp.cert("g0", rawP)},
	}); o.State != wire.TxCommitted {
		t.Fatalf("commit: %+v", o)
	}

	spam := maxAbortedDecided + maxAbortedDecided/2
	for i := 0; i < spam; i++ {
		statusTx(t, svc, fmt.Sprintf("spam:%d:ff", i))
	}
	if n := len(svc.ptx.decided); n > maxAbortedDecided+1 {
		t.Fatalf("decided table holds %d entries, want ≤ %d", n, maxAbortedDecided+1)
	}
	if svc.ptx.aborted > maxAbortedDecided {
		t.Fatalf("aborted census %d exceeds the bound", svc.ptx.aborted)
	}
	// The committed record survives eviction.
	if o := statusTx(t, svc, "c1:1:aa"); o.State != wire.TxCommitted {
		t.Fatalf("committed record evicted: %+v", o)
	}
	// The oldest spam pin was evicted; a re-probe pins it aborted again
	// with the identical answer.
	if _, ok := svc.ptx.decided["spam:0:ff"]; ok {
		t.Fatal("oldest aborted pin was not evicted")
	}
	if o := statusTx(t, svc, "spam:0:ff"); o.State != wire.TxAborted {
		t.Fatalf("re-probed evicted pin: %+v", o)
	}
}

// TestPartitionDeltaMirror drives a source service through every
// partition event kind interleaved with ordinary mutations, ships its
// incremental checkpoint deltas to a mirror, and requires the mirror's
// snapshot — stores, pending table, decided table, stamps — to be
// byte-identical to the source's. This is exactly the contract chained
// delta checkpoints rest on; before partition events were journaled,
// any partition op forced a full snapshot instead.
func TestPartitionDeltaMirror(t *testing.T) {
	tp := newTestTopology("g0", "g1")
	src := NewSpaceService(policy.AllowAll())
	src.EnablePartition("g0", tp.dir)
	mir := NewSpaceService(policy.AllowAll())
	mir.EnablePartition("g0", tp.dir)

	ship := func(step string) {
		t.Helper()
		blob, ok := src.CheckpointDelta()
		if !ok {
			t.Fatalf("%s: source journal broken — partition ops should journal events", step)
		}
		if err := mir.ApplyDelta(blob); err != nil {
			t.Fatalf("%s: apply delta: %v", step, err)
		}
		mir.ResetJournal()
	}

	v := tuple.T(tuple.Str("A"), tuple.Int(1))
	w := tuple.T(tuple.Str("B"), tuple.Int(2))
	for i := 0; i < 3; i++ {
		execOp(t, src, "c1", wire.SpaceOp{Op: policy.OpOut, Entry: v})
	}
	execOp(t, src, "c1", wire.SpaceOp{Op: policy.OpOut, Entry: w})

	// t1 reserves a copy of v with g1 as co-participant (so a forged g1
	// record can later justify its abort).
	_, o1 := prepareTx(t, src, "c1", "c1:1:aa", []string{"g0", "g1"},
		[]wire.SpaceOp{{Op: policy.OpInp, Template: v}})
	if o1.State != wire.TxVoteYes {
		t.Fatalf("t1 vote: %+v", o1)
	}
	// An ordinary inp between the prepares must consume a free copy on
	// the mirror too — the freeze-aware part of delta application.
	if res := execOp(t, src, "c2", wire.SpaceOp{Op: policy.OpInp, Template: v}); !res.Found {
		t.Fatalf("ordinary inp: %+v", res)
	}
	ship("first interval")

	raw2, o2 := prepareTx(t, src, "c2", "c2:1:bb", []string{"g0"},
		[]wire.SpaceOp{{Op: policy.OpInp, Template: v}})
	if o2.State != wire.TxVoteYes {
		t.Fatalf("t2 vote: %+v", o2)
	}
	// Committing t2 consumes the earliest stored copy and re-binds t1.
	if o := decideTx(t, src, wire.TxDecision{
		TxID: "c2:1:bb", Commit: true, Certs: []wire.VoteCert{tp.cert("g0", raw2)},
	}); o.State != wire.TxCommitted {
		t.Fatalf("t2 commit: %+v", o)
	}
	// A status probe of an unknown transaction pins it aborted.
	if o := statusTx(t, src, "ghost:1:zz"); o.State != wire.TxAborted {
		t.Fatalf("ghost status: %+v", o)
	}
	// Abort t1, justified by a forged g1 aborted record.
	g1Aborted := wire.EncodeTxOutcome(wire.TxOutcome{TxID: "c1:1:aa", State: wire.TxAborted})
	if o := decideTx(t, src, wire.TxDecision{
		TxID: "c1:1:aa", Certs: []wire.VoteCert{tp.cert("g1", g1Aborted)},
	}); o.State != wire.TxAborted {
		t.Fatalf("t1 abort: %+v", o)
	}
	// The copy t1's dropped reservation held is free again.
	if res := execOp(t, src, "c3", wire.SpaceOp{Op: policy.OpInp, Template: v}); !res.Found {
		t.Fatalf("post-abort inp: %+v", res)
	}
	ship("second interval")

	a, b := src.Snapshot(), mir.Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatalf("mirror diverged: source snapshot %d bytes, mirror %d bytes", len(a), len(b))
	}
}

// quorumGroup adds a group of 3f+1 replicas r0..r(3f) with fault bound
// f to the topology's directory.
func (tp testTopology) quorumGroup(group string, f int) {
	keys := make(map[string]ed25519.PublicKey, 3*f+1)
	for i := 0; i <= 3*f; i++ {
		id := fmt.Sprintf("r%d", i)
		keys[id] = AttestKeyFor(tp.master, group, id).Public().(ed25519.PublicKey)
	}
	tp.dir[group] = GroupKeys{F: f, Keys: keys}
}

// certBy wraps outcome bytes in a certificate signed by the listed
// replicas of the named group, in order (repeats included).
func (tp testTopology) certBy(group string, outcome []byte, replicas ...string) wire.VoteCert {
	c := wire.VoteCert{Group: group, Outcome: outcome}
	for _, id := range replicas {
		priv := AttestKeyFor(tp.master, group, id)
		c.Atts = append(c.Atts, wire.Attestation{
			Replica: id, Sig: ed25519.Sign(priv, wire.AttestPayload(group, outcome)),
		})
	}
	return c
}

// crossPrepared enables partitioning as g0 of a {g0 (f=0), g1 (f=1)}
// topology and prepares one cross transaction there. It returns the
// service, the agreed own-group vote bytes, and g1's matching YES
// outcome bytes (what g1's agreed prepare would have returned).
func crossPrepared(t *testing.T, tp testTopology, txID string) (*SpaceService, []byte, []byte) {
	t.Helper()
	tp.quorumGroup("g1", 1)
	svc := NewSpaceService(policy.AllowAll())
	svc.EnablePartition("g0", tp.dir)
	parts := []string{"g0", "g1"}
	raw, o := prepareTx(t, svc, "c1", txID, parts,
		[]wire.SpaceOp{{Op: policy.OpOut, Entry: tuple.T(tuple.Str("A"), tuple.Int(1))}})
	if o.State != wire.TxVoteYes {
		t.Fatalf("own vote: %+v", o)
	}
	remote := wire.EncodeTxOutcome(wire.TxOutcome{
		TxID: txID, State: wire.TxVoteYes, Participants: parts,
		Results: []wire.SpaceResult{{Status: wire.StatusOK, Inserted: true}},
	})
	return svc, raw, remote
}

// TestOwnGroupCertCheckedAgainstAgreedVote pins the own-group rule: a
// group judges its own certificate by comparing the outcome bytes with
// the vote its agreed prepare recorded, never by the signatures. A
// validly signed certificate over any other bytes leaves the
// transaction prepared; an unsigned one over the recorded bytes, next
// to a valid remote certificate, commits.
func TestOwnGroupCertCheckedAgainstAgreedVote(t *testing.T) {
	const txID = "c1:1:aa"
	tp := newTestTopology("g0")
	svc, own, remote := crossPrepared(t, tp, txID)
	remoteCert := tp.certBy("g1", remote, "r0", "r1", "r2")

	agreed, err := wire.DecodeTxOutcome(own)
	if err != nil {
		t.Fatal(err)
	}
	otherParts := agreed
	otherParts.Participants = []string{"g0", "g1", "g2"}
	otherResults := agreed
	otherResults.Results = []wire.SpaceResult{{Status: wire.StatusOK, Detail: "not this group's vote"}}
	for name, o := range map[string]wire.TxOutcome{
		"participants": otherParts,
		"results":      otherResults,
	} {
		forged := tp.cert("g0", wire.EncodeTxOutcome(o))
		if bytes.Equal(forged.Outcome, own) {
			t.Fatalf("%s forgery encodes to the agreed vote", name)
		}
		dec := wire.TxDecision{TxID: txID, Commit: true, Certs: []wire.VoteCert{forged, remoteCert}}
		if got := decideTx(t, svc, dec); got.State != wire.TxVoteYes {
			t.Fatalf("signed own-group cert with different %s moved the tx to state %d", name, got.State)
		}
		if st := statusTx(t, svc, txID); st.State != wire.TxVoteYes {
			t.Fatalf("after %s forgery: status %d, want still prepared", name, st.State)
		}
	}

	unsigned := wire.VoteCert{Group: "g0", Outcome: own}
	if got := decideTx(t, svc, wire.TxDecision{
		TxID: txID, Commit: true, Certs: []wire.VoteCert{unsigned, remoteCert},
	}); got.State != wire.TxCommitted {
		t.Fatalf("unsigned own-group cert over the agreed vote: state %d, want committed", got.State)
	}
	if n := svc.Space().Len(); n != 1 {
		t.Fatalf("space holds %d tuples after commit, want 1", n)
	}
}

// TestRemoteCertNeedsQuorum checks that a remote group's certificate
// still needs 2f+1 distinct valid signatures: 2f valid ones, padded
// with a repeat, an unknown signer and a signature under the wrong key,
// refuse to commit; one more valid signature commits.
func TestRemoteCertNeedsQuorum(t *testing.T) {
	const txID = "c1:1:aa"
	tp := newTestTopology("g0")
	svc, own, remote := crossPrepared(t, tp, txID)
	ownCert := wire.VoteCert{Group: "g0", Outcome: own}

	short := tp.certBy("g1", remote, "r0", "r1", "r0")
	wrongKey := tp.certBy("g1", remote, "r3")
	wrongKey.Atts[0].Replica = "r2"
	stranger := wire.Attestation{Replica: "r9",
		Sig: ed25519.Sign(AttestKeyFor(tp.master, "g1", "r9"), wire.AttestPayload("g1", remote))}
	short.Atts = append(short.Atts, stranger, wrongKey.Atts[0])
	if got := decideTx(t, svc, wire.TxDecision{
		TxID: txID, Commit: true, Certs: []wire.VoteCert{ownCert, short},
	}); got.State != wire.TxVoteYes {
		t.Fatalf("remote cert with 2f valid signatures moved the tx to state %d", got.State)
	}

	full := tp.certBy("g1", remote, "r0", "r1", "r2")
	if got := decideTx(t, svc, wire.TxDecision{
		TxID: txID, Commit: true, Certs: []wire.VoteCert{ownCert, full},
	}); got.State != wire.TxCommitted {
		t.Fatalf("remote cert with 2f+1 valid signatures: state %d, want committed", got.State)
	}
}

// countVerifies swaps the certificate signature check for a counting
// wrapper for the rest of the test and returns the counter.
func countVerifies(t *testing.T) *int {
	n := new(int)
	prev := verifySig
	verifySig = func(pub ed25519.PublicKey, msg, sig []byte) bool {
		*n++
		return prev(pub, msg, sig)
	}
	t.Cleanup(func() { verifySig = prev })
	return n
}

// TestCertVerificationBounded is the regression for unbounded
// certificate work: a decision may carry up to MaxTxParticipants
// certificates of up to MaxCertSigs attestations each, and a replica
// must not spend one signature check per attestation. Repeating one
// replica with well-formed wrong signatures, naming unknown signers,
// padding past the quorum or repeating certificates for one group must
// cost at most one check per replica of the group.
func TestCertVerificationBounded(t *testing.T) {
	const txID = "c1:1:aa"
	const copies = 64
	tp := newTestTopology("g0")
	svc, own, remote := crossPrepared(t, tp, txID)
	g1Size := len(tp.dir["g1"].Keys)

	junk := func(group string, outcome []byte) wire.VoteCert {
		c := wire.VoteCert{Group: group, Outcome: outcome}
		for i := 0; i < copies; i++ {
			c.Atts = append(c.Atts, wire.Attestation{Replica: "r0", Sig: make([]byte, ed25519.SignatureSize)})
		}
		return c
	}
	flood := func(certs ...wire.VoteCert) []wire.VoteCert {
		var out []wire.VoteCert
		for i := 0; i < copies; i++ {
			out = append(out, certs...)
		}
		return out
	}
	remoteNo := wire.EncodeTxOutcome(wire.TxOutcome{TxID: txID, State: wire.TxVoteNo})
	overQuorum := tp.certBy("g1", remote, "r0", "r1", "r2", "r3")
	for i := 0; i < copies; i++ {
		overQuorum.Atts = append(overQuorum.Atts, wire.Attestation{Replica: fmt.Sprintf("x%d", i),
			Sig: make([]byte, ed25519.SignatureSize)})
	}

	cases := []struct {
		name  string
		dec   wire.TxDecision
		max   int
		state uint8
	}{
		{"commit, repeated replica", wire.TxDecision{TxID: txID, Commit: true,
			Certs: flood(junk("g0", own), junk("g1", remote))}, g1Size, wire.TxVoteYes},
		{"abort, repeated replica", wire.TxDecision{TxID: txID,
			Certs: flood(junk("g1", remoteNo))}, g1Size, wire.TxVoteYes},
		{"commit, past the quorum", wire.TxDecision{TxID: txID, Commit: true,
			Certs: []wire.VoteCert{{Group: "g0", Outcome: own}, overQuorum}}, 3, wire.TxCommitted},
	}
	n := countVerifies(t)
	for _, tc := range cases {
		*n = 0
		if got := decideTx(t, svc, tc.dec); got.State != tc.state {
			t.Fatalf("%s: state %d, want %d", tc.name, got.State, tc.state)
		}
		if *n > tc.max {
			t.Fatalf("%s: %d signature verifications, want at most %d", tc.name, *n, tc.max)
		}
	}
}

// repliesFrom sends op as an authenticated request to every replica of
// the cluster and returns each replica's committed reply.
func repliesFrom(t *testing.T, cli *Client, op []byte) map[string]Reply {
	t.Helper()
	cli.reqID++
	req := Request{Client: cli.id, ReqID: cli.reqID, Op: op, Group: cli.Group}
	req.Auth = cli.authVector(req)
	payload, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cli.replicas {
		_ = cli.tr.SendClass(id, payload, transport.ClassRequest)
	}
	got := make(map[string]Reply, len(cli.replicas))
	deadline := time.After(10 * time.Second)
	for len(got) < len(cli.replicas) {
		select {
		case m := <-cli.tr.Inbox():
			if rep, ok := cli.replyFor(m, req.ReqID); ok && !rep.Tentative && !rep.ReadOnly {
				got[rep.Replica] = rep
			}
		case <-deadline:
			t.Fatalf("%d of %d replicas replied", len(got), len(cli.replicas))
		}
	}
	return got
}

// TestPartitionReplyAttestations checks, on a running f=1 group, which
// replies are signed: every prepare and status reply carries a valid
// attestation over the agreed result, and no decision reply carries
// one. The decision itself commits on the unsigned-checked own-group
// certificate alone (a single-participant transaction).
func TestPartitionReplyAttestations(t *testing.T) {
	master := []byte("reply-attest-test-master")
	ids := []string{"r0", "r1", "r2", "r3"}
	keys := make(map[string]ed25519.PublicKey, len(ids))
	for _, id := range ids {
		keys[id] = AttestKeyFor(master, "g0", id).Public().(ed25519.PublicKey)
	}
	dir := Directory{"g0": GroupKeys{F: 1, Keys: keys}}
	svcs := make([]Service, len(ids))
	for i := range svcs {
		svc := NewSpaceService(policy.AllowAll())
		svc.EnablePartition("g0", dir)
		svcs[i] = svc
	}
	cl, err := NewCluster(1, svcs, WithGroupIdentity("g0", master))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cli := cl.Client("alice")

	signed := func(step string, reps map[string]Reply) []byte {
		t.Helper()
		var result []byte
		for id, rep := range reps {
			if result == nil {
				result = rep.Result
			} else if !bytes.Equal(result, rep.Result) {
				t.Fatalf("%s: replicas disagree on the result", step)
			}
			if !ed25519.Verify(keys[id], wire.AttestPayload("g0", rep.Result), rep.Attest) {
				t.Fatalf("%s: reply of %s carries no valid attestation", step, id)
			}
		}
		return result
	}

	const txID = "alice:1:aa"
	vote := signed("prepare", repliesFrom(t, cli, wire.EncodeTxPrepare(wire.TxPrepare{
		TxID: txID, Participants: []string{"g0"},
		Ops: []wire.SpaceOp{{Op: policy.OpOut, Entry: tuple.T(tuple.Str("A"), tuple.Int(1))}},
	})))
	if status := signed("status", repliesFrom(t, cli,
		wire.EncodeTxStatus(wire.TxStatus{TxID: txID}))); !bytes.Equal(status, vote) {
		t.Fatal("status reply differs from the prepare vote")
	}
	dec := wire.EncodeTxDecision(wire.TxDecision{TxID: txID, Commit: true,
		Certs: []wire.VoteCert{{Group: "g0", Outcome: vote}}})
	for id, rep := range repliesFrom(t, cli, dec) {
		if len(rep.Attest) != 0 {
			t.Fatalf("decision reply of %s carries an attestation", id)
		}
		o, err := wire.DecodeTxOutcome(rep.Result)
		if err != nil || o.State != wire.TxCommitted {
			t.Fatalf("decision reply of %s: %+v %v, want committed", id, o, err)
		}
	}
}
