package main

import (
	"strings"
	"testing"

	"peats/internal/tuple"
	"peats/internal/wire"
)

// expectReject fails unless err is non-nil and mentions want.
func expectReject(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: corrupted state accepted", what)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q does not mention %q", what, err, want)
	}
}

func TestCheckKV(t *testing.T) {
	want := []int64{1, 0, 2}
	good := []tuple.Tuple{kvTuple(0, 1), kvTuple(1, 0), kvTuple(2, 2)}
	snaps := [][]byte{{1, 2}, {1, 2}}
	if err := checkKV(want, good, snaps); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
	stale := []tuple.Tuple{kvTuple(0, 1), kvTuple(1, 0), kvTuple(2, 1)}
	expectReject(t, "stale version", checkKV(want, stale, snaps), "version")
	dup := append(append([]tuple.Tuple(nil), good...), kvTuple(1, 0))
	expectReject(t, "duplicate key", checkKV(want, dup, snaps), "twice")
	expectReject(t, "missing key", checkKV(want, good[:2], snaps), "missing")
	stray := append(append([]tuple.Tuple(nil), good...), tuple.T(tuple.Str("kv"), tuple.Int(7), tuple.Int(0)))
	expectReject(t, "unknown key", checkKV(want, stray, snaps), "unexpected")
	expectReject(t, "diverged replica", checkKV(want, good, [][]byte{{1, 2}, {1, 3}}), "differs")
}

func TestCheckQueue(t *testing.T) {
	empty := wire.NewWriter()
	empty.Uvarint(0)
	one := wire.NewWriter()
	one.Uvarint(1)
	one.Tuple(jobTuple(1, 0))
	clean := [][]byte{empty.Data(), empty.Data(), empty.Data(), empty.Data()}
	if err := checkQueue(3, []int64{0, 2, 1}, clean); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
	expectReject(t, "job taken twice", checkQueue(3, []int64{0, 2, 2}, clean), "twice")
	expectReject(t, "job never taken", checkQueue(3, []int64{0, 2}, clean), "taken of")
	expectReject(t, "job never put", checkQueue(3, []int64{0, 1, 2, 3}, clean), "never put")
	left := [][]byte{one.Data(), one.Data(), one.Data(), one.Data()}
	expectReject(t, "job left in recovered state", checkQueue(3, []int64{0, 1, 2}, left), "empty")
	split := [][]byte{empty.Data(), empty.Data(), one.Data(), empty.Data()}
	expectReject(t, "replica recovered differently", checkQueue(3, []int64{0, 1, 2}, split), "differs")
}

func TestCheckUniversal(t *testing.T) {
	replies := [][]int64{{0, 2, 4}, {1, 3, 5}}
	if err := checkUniversal(replies, 6, 6); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
	expectReject(t, "lost increment", checkUniversal(replies, 5, 6), "counter reads")
	expectReject(t, "repeated reply", checkUniversal([][]int64{{0, 2, 2}, {1, 3, 5}}, 6, 6), "after")
	expectReject(t, "missing reply", checkUniversal([][]int64{{0, 2}, {1, 3, 5}}, 6, 6), "replies")
}

func TestCheckXfer(t *testing.T) {
	accts := xferAccounts(0)
	accts[0].bal -= 7 // one transfer from accts[0] to accts[1]
	accts[1].bal += 7
	state := func(accts []account) [][]tuple.Tuple {
		per := make([][]tuple.Tuple, xferGroups)
		for _, a := range accts {
			per[a.group] = append(per[a.group], acctTuple(a.name, a.bal))
		}
		return per
	}
	if err := checkXfer(accts, state(accts)); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}

	minted := append([]account(nil), accts...)
	minted[2].bal += 5
	expectReject(t, "balance off", checkXfer(accts, state(minted)), "holds")

	// Both the resident balances and the tracked ones inflated: only
	// conservation catches it.
	expectReject(t, "total not conserved", checkXfer(minted, state(minted)), "total")

	moved := state(accts)
	other := 1 - accts[0].group
	moved[other] = append(moved[other], moved[accts[0].group][0])
	moved[accts[0].group] = moved[accts[0].group][1:]
	expectReject(t, "account in the wrong group", checkXfer(accts, moved), "owned by")

	dup := state(accts)
	dup[0] = append(dup[0], dup[0][0])
	expectReject(t, "account twice", checkXfer(accts, dup), "twice")

	lost := state(accts)
	lost[1] = lost[1][1:]
	expectReject(t, "account missing", checkXfer(accts, lost), "accounts resident")
}
