// Replication hooks: the narrow exported surface internal/replica builds
// the replicated serving plane on. A follower is a durable Store over its
// own data directory, opened read-only (OpenReadOnly) so external writes
// refuse with ErrReadOnly and no restabilization starts, while the
// streamed leader records flow through ApplyRecord (store.go) — the same
// entry recovery replays the journal through, relabel records included,
// which is what makes follower state bit-identical to the leader's at the
// same journal position. JournalSeq exposes the replication watermark
// (the follower's applied_seq, the leader's leader_seq), SubscribeJournal
// wakes a parked stream when it advances, and SetJournalRetention pins
// the leader's journal tail under connected followers so checkpoints
// cannot truncate records they still need.

package serve

import "errors"

// ErrReadOnly is returned by Submit, TrySubmit and Resize on a follower
// store: replicas apply the leader's journal only, until promotion flips
// them read-write.
var ErrReadOnly = errors.New("serve: read-only follower (promote to accept writes)")

// JournalDir returns the journal subdirectory of a durable store's data
// dir — the leader-side path a wal.Tail streams frames from.
func JournalDir(dir string) string { return journalDir(dir) }

// CheckpointDir returns the checkpoint subdirectory of a durable store's
// data dir — where the leader serves bootstrap checkpoints from and a
// follower installs them.
func CheckpointDir(dir string) string { return ckptDir(dir) }

// SetReadOnly flips the external write paths, and with them
// restabilization, on or off. Lookups, stats and ApplyRecord are
// unaffected.
func (s *Store) SetReadOnly(v bool) { s.readOnly.Store(v) }

// JournalSeq returns the sequence number of the last record this store
// journaled — 0 on in-memory stores and before the first durable append.
// On a leader this is the replication high-water mark; on a follower it
// equals the applied sequence, because ApplyRecord journals exactly one
// record per leader record.
func (s *Store) JournalSeq() uint64 { return s.journalSeq.Load() }

// SubscribeJournal registers a subscriber woken (coalesced, single slot —
// the WakeSub contract) each time a commit group advances JournalSeq: the
// replication stream's hook, as SubscribeDeltas is the watch stream's.
// Callers must Cancel when done.
func (s *Store) SubscribeJournal() *WakeSub { return s.journalWake.subscribe() }

// SetJournalRetention pins the store's journal so records with sequence
// numbers >= floor survive checkpoint truncation (0 clears the pin). A
// no-op until a journal is attached; the pin does not persist across
// reopen — reconnecting followers re-establish it, and a follower that
// missed the window gets an explicit gap (410) and re-bootstraps.
func (s *Store) SetJournalRetention(floor uint64) {
	if j := s.jrnLive.Load(); j != nil {
		j.SetRetention(floor)
	}
}
