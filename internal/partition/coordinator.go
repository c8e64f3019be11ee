package partition

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"

	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/wire"
)

// Cross-partition submissions run a two-phase commit whose coordinator
// is the client itself — an untrusted party. Safety never rests on the
// coordinator:
//
//   - Each participant group's prepare vote is BFT-agreed and executed
//     against its own state; a YES parks the group's slice of effects
//     as a reservation, invisible to every other operation.
//   - The coordinator can only *transport* decisions, not invent them:
//     a group applies COMMIT only with vote certificates proving every
//     participant voted YES on the same participant set, and ABORT
//     only with a certificate proving some participant voted NO or is
//     pinned aborted. A remote group's certificate needs 2f+1 of its
//     replicas' attestations over the agreed vote bytes; a group checks
//     its own certificate against its replicated vote record instead
//     (the bytes must match exactly). Conflicting decisions sent to
//     different groups cannot both carry valid justification, so
//     outcomes never diverge.
//   - Only prepare and status replies are signed (InvokeCert); decision
//     replies carry no attestation, as decide reads only the resulting
//     state.
//   - A coordinator that crashes mid-protocol leaves transactions
//     prepared; any party can finish them with Recover, which queries
//     the participants' agreed records (pinning still-unknown
//     transactions aborted, so the protocol terminates) and delivers
//     the unique justified decision.
//
// Interrupted Submit calls (context cancellation, crash) may therefore
// leave a transaction in doubt at some groups; its reserved tuples stay
// invisible until Recover delivers the decision.

// prepReply is one group's prepare or status answer.
type prepReply struct {
	outcome wire.TxOutcome
	cert    wire.VoteCert
	err     error
}

// invokeCertAll invokes op on every listed group concurrently and
// decodes the replies as transaction outcomes with certificates.
func (s *Space) invokeCertAll(ctx context.Context, idxs []int, mkOp func(gi int) []byte) []prepReply {
	replies := make([]prepReply, len(idxs))
	var wg sync.WaitGroup
	for k, gi := range idxs {
		wg.Add(1)
		go func(k, gi int) {
			defer wg.Done()
			raw, cert, err := s.groups[gi].client.InvokeCert(ctx, mkOp(gi))
			if err != nil {
				replies[k].err = err
				return
			}
			o, err := wire.DecodeTxOutcome(raw)
			if err != nil {
				replies[k].err = fmt.Errorf("partition: group %q: %w", s.groups[gi].id, err)
				return
			}
			replies[k] = prepReply{outcome: o, cert: cert}
		}(k, gi)
	}
	wg.Wait()
	return replies
}

// decide delivers a decision to every listed group and verifies each
// lands in the wanted final state.
func (s *Space) decide(ctx context.Context, idxs []int, dec wire.TxDecision, want uint8) error {
	payload := wire.EncodeTxDecision(dec)
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for k, gi := range idxs {
		wg.Add(1)
		go func(k, gi int) {
			defer wg.Done()
			raw, err := s.groups[gi].client.Invoke(ctx, payload)
			if err != nil {
				errs[k] = err
				return
			}
			o, err := wire.DecodeTxOutcome(raw)
			if err != nil {
				errs[k] = fmt.Errorf("partition: group %q: %w", s.groups[gi].id, err)
				return
			}
			if o.State != want {
				errs[k] = fmt.Errorf("partition: group %q reports transaction state %d, want %d",
					s.groups[gi].id, o.State, want)
			}
		}(k, gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// submitCross runs a multi-group submission as a two-phase commit.
func (s *Space) submitCross(ctx context.Context, ops []peats.Op, routes []int) ([]peats.Result, error) {
	if len(ops) > wire.MaxTxOps {
		return nil, fmt.Errorf("peats: submission of %d ops exceeds the %d-op wire bound",
			len(ops), wire.MaxTxOps)
	}
	// Slice the submission per owning group, keeping each op's original
	// index: within a group order is preserved, and ops of different
	// groups touch disjoint key slices, so the per-group executions
	// compose to exactly the single-space execution order.
	perGroup := make(map[int][]int) // group index → original op indices
	var idxs []int
	for i, gi := range routes {
		if _, seen := perGroup[gi]; !seen {
			idxs = append(idxs, gi)
		}
		perGroup[gi] = append(perGroup[gi], i)
	}
	sort.Ints(idxs)
	parts := make([]string, len(idxs))
	for k, gi := range idxs {
		parts[k] = s.groups[gi].id
	}
	sort.Strings(parts)
	// Transaction IDs must be unpredictable, not just unique: any
	// authenticated party may status-probe an unknown ID and thereby pin
	// it aborted (presumed abort, required for coordinator recovery to
	// terminate). With guessable IDs a rival could pre-pin this client's
	// next transactions aborted — a targeted denial of service — so each
	// ID carries a fresh random nonce alongside the readable sequence.
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("partition: tx nonce: %w", err)
	}
	s.txSeq++
	txID := fmt.Sprintf("%s:%d:%x", s.id, s.txSeq, nonce)

	replies := s.invokeCertAll(ctx, idxs, func(gi int) []byte {
		sliced := make([]peats.Op, len(perGroup[gi]))
		for k, oi := range perGroup[gi] {
			sliced[k] = ops[oi]
		}
		return wire.EncodeTxPrepare(wire.TxPrepare{
			TxID: txID, Participants: parts, Ops: toWireOps(sliced),
		})
	})
	for _, r := range replies {
		if r.err != nil {
			return nil, r.err
		}
	}

	allYes := true
	for _, r := range replies {
		if r.outcome.State != wire.TxVoteYes {
			allYes = false
		}
	}
	if allYes {
		dec := wire.TxDecision{TxID: txID, Commit: true}
		for _, r := range replies {
			dec.Certs = append(dec.Certs, r.cert)
		}
		if err := s.decide(ctx, idxs, dec, wire.TxCommitted); err != nil {
			return nil, err
		}
		merged := make([]wire.SpaceResult, len(ops))
		for k, gi := range idxs {
			if len(replies[k].outcome.Results) != len(perGroup[gi]) {
				return nil, fmt.Errorf("partition: group %q returned %d results for %d ops",
					s.groups[gi].id, len(replies[k].outcome.Results), len(perGroup[gi]))
			}
			for j, oi := range perGroup[gi] {
				merged[oi] = replies[k].outcome.Results[j]
			}
		}
		return liftResults(ops, merged)
	}

	// Some group voted NO (or the transaction was already pinned
	// aborted there): abort everywhere, justified by the negative
	// votes' certificates.
	dec := wire.TxDecision{TxID: txID}
	for _, r := range replies {
		if r.outcome.State != wire.TxVoteYes {
			dec.Certs = append(dec.Certs, r.cert)
		}
	}
	if err := s.decide(ctx, idxs, dec, wire.TxAborted); err != nil {
		return nil, err
	}
	return s.mergeAborted(ops, idxs, perGroup, replies)
}

// mergeAborted reconstructs the single-space outcome of an aborted
// submission: the earliest aborting operation (by original index)
// decides the unit's fate, every operation after it reports Skipped,
// and the prefix keeps the results the groups computed — identical to
// what a single group executing the whole unit would have returned,
// because operations of different groups touch disjoint key slices.
func (s *Space) mergeAborted(
	ops []peats.Op, idxs []int, perGroup map[int][]int, replies []prepReply,
) ([]peats.Result, error) {
	abortIdx := len(ops)
	var abortRes wire.SpaceResult
	for k, gi := range idxs {
		o := replies[k].outcome
		if o.State == wire.TxVoteYes {
			continue
		}
		orig := perGroup[gi]
		if len(o.Results) != len(orig) {
			// The group aborted without per-op results (a pinned or
			// duplicate transaction): charge the abort to its first op.
			if orig[0] < abortIdx {
				abortIdx = orig[0]
				abortRes = wire.SpaceResult{Status: wire.StatusError,
					Detail: fmt.Sprintf("transaction aborted at group %s", s.groups[gi].id)}
			}
			continue
		}
		for j, sr := range o.Results {
			aborting := sr.Status == wire.StatusDenied || sr.Status == wire.StatusError ||
				(ops[orig[j]].Code == policy.OpInp && sr.Status == wire.StatusOK && !sr.Found)
			if aborting {
				if orig[j] < abortIdx {
					abortIdx = orig[j]
					abortRes = sr
				}
				break
			}
		}
	}
	if abortIdx == len(ops) {
		return nil, errors.New("partition: aborted transaction with no aborting operation")
	}
	merged := make([]wire.SpaceResult, len(ops))
	for k, gi := range idxs {
		o := replies[k].outcome
		for j, oi := range perGroup[gi] {
			if j < len(o.Results) && oi < abortIdx {
				merged[oi] = o.Results[j]
			} else if oi != abortIdx {
				merged[oi] = wire.SpaceResult{Status: wire.StatusSkipped}
			}
		}
	}
	merged[abortIdx] = abortRes
	return liftResults(ops, merged)
}

// liftResults converts a merged result vector to client results with
// the exact error semantics of the single-group submission path:
// denial surfaces as DeniedError with the executed prefix, an inp miss
// or a skip as ErrAborted.
func liftResults(ops []peats.Op, merged []wire.SpaceResult) ([]peats.Result, error) {
	results := make([]peats.Result, 0, len(ops))
	for i, sr := range merged {
		switch sr.Status {
		case wire.StatusOK:
		case wire.StatusDenied:
			return results, &peats.DeniedError{Detail: sr.Detail}
		case wire.StatusSkipped:
			return results, fmt.Errorf("%w: op %d skipped", peats.ErrAborted, i)
		default:
			return results, errors.New("peats service: " + sr.Detail)
		}
		results = append(results, peats.NewResult(ops[i], sr.Found, sr.Inserted, sr.Tuple, sr.Tuples))
		if ops[i].Code == policy.OpInp && !sr.Found {
			return results, fmt.Errorf("%w: op %d (inp %v) found no match",
				peats.ErrAborted, i, ops[i].Template)
		}
	}
	return results, nil
}

// Recover finishes an in-doubt cross-partition transaction on behalf
// of a crashed (or Byzantine) coordinator: it queries every
// participant group's agreed record — pinning the transaction aborted
// wherever it is unknown, so the protocol terminates — and delivers
// the unique decision those records justify. It returns whether the
// transaction committed. Any number of recoverers may race; decisions
// are idempotent and certificate validation makes the outcome unique.
func (s *Space) Recover(ctx context.Context, txID string, participants []string) (bool, error) {
	idxs := make([]int, 0, len(participants))
	for _, id := range participants {
		found := false
		for gi := range s.groups {
			if s.groups[gi].id == id {
				idxs = append(idxs, gi)
				found = true
				break
			}
		}
		if !found {
			return false, fmt.Errorf("partition: unknown participant group %q", id)
		}
	}
	statusOp := wire.EncodeTxStatus(wire.TxStatus{TxID: txID})
	replies := s.invokeCertAll(ctx, idxs, func(int) []byte { return statusOp })
	for _, r := range replies {
		if r.err != nil {
			return false, r.err
		}
	}
	allYes := true
	committed := false
	for _, r := range replies {
		switch r.outcome.State {
		case wire.TxVoteYes:
		case wire.TxCommitted:
			committed = true
		default:
			allYes = false
		}
	}
	if committed && !allYes {
		// Impossible under the protocol: commit requires universal YES
		// evidence, which forecloses every justified abort.
		return false, errors.New("partition: participants disagree on a decided transaction")
	}
	dec := wire.TxDecision{TxID: txID, Commit: allYes}
	want := uint8(wire.TxAborted)
	if allYes {
		want = wire.TxCommitted
		for _, r := range replies {
			dec.Certs = append(dec.Certs, r.cert)
		}
	} else {
		for _, r := range replies {
			if r.outcome.State != wire.TxVoteYes && r.outcome.State != wire.TxCommitted {
				dec.Certs = append(dec.Certs, r.cert)
			}
		}
	}
	if err := s.decide(ctx, idxs, dec, want); err != nil {
		return false, err
	}
	return allYes, nil
}
