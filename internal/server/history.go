package server

import (
	"encoding/binary"
	"time"
)

// historyBlock is the size of one block of the reclaim history.
const historyBlock = 4096

// reclaimHistory is the server's record of every fully reclaimed
// session, kept compact because it grows with every lifecycle a
// long-running server sees: each record is a run of varints appended
// to one byte stream stored in fixed blocks of historyBlock bytes, so
// the history costs about 30 bytes a session and never copies what it
// already holds. A record is, in order: the session id as the
// difference from the previous record's id, the latency, the final
// object count, the collections, ports, resources, leaked ports and
// leaked resources, the log length, and then each log event's kind and
// id. ReclaimRecords decodes the stream on demand.
type reclaimHistory struct {
	blocks [][]byte // each of capacity historyBlock; all but the last full
	n      int      // records
	lastID SessionID
	enc    []byte // one record's encoding, reused
}

// add appends rec, whose salvage log is log (rec.Log is ignored).
func (rh *reclaimHistory) add(rec *ReclaimRecord, log []reclaimEvent) {
	b := binary.AppendVarint(rh.enc[:0], int64(rec.ID-rh.lastID))
	b = binary.AppendVarint(b, int64(rec.Latency))
	b = binary.AppendUvarint(b, rec.FinalObjects)
	for _, c := range [...]int{rec.Collections, rec.Ports, rec.Resources,
		rec.LeakedPorts, rec.LeakedResources, len(log)} {
		b = binary.AppendVarint(b, int64(c))
	}
	for _, e := range log {
		b = binary.AppendVarint(b, int64(e.kind))
		b = binary.AppendVarint(b, int64(e.id))
	}
	rh.enc = b
	rh.lastID = rec.ID
	rh.n++
	for len(b) > 0 {
		if len(rh.blocks) == 0 || len(rh.blocks[len(rh.blocks)-1]) == historyBlock {
			rh.blocks = append(rh.blocks, make([]byte, 0, historyBlock))
		}
		last := &rh.blocks[len(rh.blocks)-1]
		k := min(len(b), historyBlock-len(*last))
		*last, b = append(*last, b[:k]...), b[k:]
	}
}

// records decodes the whole history, in the order it was added.
func (rh *reclaimHistory) records() []ReclaimRecord {
	out := make([]ReclaimRecord, rh.n)
	r := historyReader{blocks: rh.blocks}
	id := SessionID(0)
	for i := range out {
		id += SessionID(r.varint())
		rec := &out[i]
		rec.ID = id
		rec.Latency = time.Duration(r.varint())
		rec.FinalObjects = r.uvarint()
		for _, c := range [...]*int{&rec.Collections, &rec.Ports, &rec.Resources,
			&rec.LeakedPorts, &rec.LeakedResources} {
			*c = int(r.varint())
		}
		if n := r.varint(); n > 0 {
			rec.Log = make([]ReclaimEvent, n)
			for j := range rec.Log {
				rec.Log[j] = reclaimEvent{kind: int32(r.varint()), id: int32(r.varint())}.public()
			}
		}
	}
	return out
}

// historyReader reads the history's byte stream across its blocks.
// The stream is the server's own writing, so a short read is a bug
// and panics.
type historyReader struct {
	blocks [][]byte
	b      []byte
}

func (r *historyReader) ReadByte() (byte, error) {
	for len(r.b) == 0 {
		r.b, r.blocks = r.blocks[0], r.blocks[1:]
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *historyReader) varint() int64 {
	v, err := binary.ReadVarint(r)
	if err != nil {
		panic("server: corrupt reclaim history: " + err.Error())
	}
	return v
}

func (r *historyReader) uvarint() uint64 {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		panic("server: corrupt reclaim history: " + err.Error())
	}
	return v
}
