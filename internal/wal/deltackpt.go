package wal

// Delta checkpoint files: ckpt-%016x.dckp beside the full ckpt-*.ckpt
// files, where the hex field is the journal sequence the delta covers and
// the header names the sequence of the encoding it chains from (the
// previous full checkpoint or the previous delta). A base checkpoint plus
// its chain of deltas re-composes the same state the full checkpoint at
// the tip sequence would hold, at a fraction of the bytes when churn is
// low — the payload is opaque here (internal/serve encodes changed label
// runs against the previous encoding), with the same tmp+fsync+rename
// install and trailing CRC-32C discipline as full checkpoints.
//
// Chain walking (LatestChain) is deliberately forgiving: a damaged or
// missing link just ends the chain early, and recovery replays a longer
// journal tail from the last good link — the journal is only ever
// truncated below the oldest retained FULL checkpoint, so the records a
// shortened chain needs are still on disk.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

const (
	dckpSuffix = ".dckp"
	dckpMagic  = 0x53504b44 // "SPKD"
	dckpHdr    = 24         // u32 magic | u64 seq | u64 prevSeq | u32 crc
)

func dckpName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, dckpSuffix)
}

// WriteDeltaCheckpoint atomically installs a delta checkpoint covering
// journal sequence seq, chained onto the encoding at prevSeq.
func WriteDeltaCheckpoint(dir string, seq, prevSeq uint64, payload []byte) error {
	var hdr [dckpHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], dckpMagic)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint64(hdr[12:], prevSeq)
	return installFile(dir, dckpName(seq), hdr[:], payload)
}

// ReadDeltaCheckpoint loads and verifies the delta checkpoint covering
// seq, returning the sequence it chains from and its payload.
func ReadDeltaCheckpoint(dir string, seq uint64) (prevSeq uint64, payload []byte, err error) {
	hdr, payload, err := readInstalled(dir, dckpName(seq), "delta checkpoint", dckpMagic, dckpHdr, seq)
	if err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(hdr[12:]), payload, nil
}

// DeltaCheckpoints lists the delta checkpoint sequence numbers in dir,
// ascending. Non-matching files (including temp leftovers) are ignored.
func DeltaCheckpoints(dir string) ([]uint64, error) { return listSeqs(dir, dckpSuffix) }

// DeltaLink is one verified link of a checkpoint chain.
type DeltaLink struct {
	Seq     uint64 // journal sequence this link covers
	PrevSeq uint64 // the encoding it chains from (base or previous link)
	Payload []byte
}

// LatestChain finds the newest recoverable encoding in dir: the newest
// full checkpoint that verifies, plus the longest verified chain of delta
// checkpoints on top of it (each link's PrevSeq naming the previous
// link's Seq). An unreadable link ends the chain early — recovery then
// replays a longer journal tail from the last good link. Falls back past
// a damaged newest full checkpoint exactly like LatestCheckpoint (a chain
// written against the damaged base is unreachable from the older base and
// is simply not followed). Returns ErrNoCheckpoint (wrapped) when no full
// checkpoint verifies.
func LatestChain(dir string) (baseSeq uint64, base []byte, chain []DeltaLink, err error) {
	baseSeq, base, err = LatestCheckpoint(dir)
	if err != nil {
		return 0, nil, nil, err
	}
	dseqs, err := DeltaCheckpoints(dir)
	if err != nil {
		return 0, nil, nil, err
	}
	// Walk the chain: the link extending the encoding at cur is the delta
	// whose header names cur as its predecessor. A live process writes the
	// chain sequentially and every restart rebases onto a fresh full
	// checkpoint (pruning superseded deltas), so at most one link extends
	// any tip; scanning ascending makes the walk deterministic regardless.
	cur := baseSeq
	for {
		extended := false
		for _, ds := range dseqs {
			if ds <= cur {
				continue
			}
			prev, payload, err := ReadDeltaCheckpoint(dir, ds)
			if err != nil || prev != cur {
				continue
			}
			chain = append(chain, DeltaLink{Seq: ds, PrevSeq: prev, Payload: payload})
			cur = ds
			extended = true
			break
		}
		if !extended {
			return baseSeq, base, chain, nil
		}
	}
}

// PruneDeltaCheckpointsBelow deletes delta checkpoints with Seq <= seq —
// the retention pass after a full rebase, which supersedes the old chain.
func PruneDeltaCheckpointsBelow(dir string, seq uint64) error {
	dseqs, err := DeltaCheckpoints(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, ds := range dseqs {
		if ds > seq {
			continue
		}
		if err := os.Remove(filepath.Join(dir, dckpName(ds))); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}
