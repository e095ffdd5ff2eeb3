package flow

import "unsafe"

// This file is the million-flow storage engine behind Tracker: a flat
// open-addressing hash table over arena-allocated per-flow records.
//
// Layout. The table itself is a power-of-two slice of 8-byte slots,
// each the low 32 bits of its key's hash (the tag) plus a 1-based arena
// reference (0 marks an empty slot): no pointers, eight slots to a
// cache line. The key lives only in its record; a probe reads the
// record's Stats.Key only on a tag match, like the signatures of DPDK's
// rte_hash. Probing is linear and there are no deletions, so no
// tombstones exist and a probe chain ends at the first empty slot. The
// Stats records live in an arena of fixed-size chunks (chunkLen records
// each) that are never reallocated: a *Stats handed out once — to a
// telemetry probe or a report — stays valid across any number of
// grows, which move slots, never records. Each chunk carries a
// parallel block of seq-window bitmap words, sub-sliced per record, so
// a flow costs two allocations per 4096 flows and, with a 64-packet
// window, ~184 bytes in all. Lookup, hit and insert share one probe
// loop (find), which inlines.
//
// Growth. The table doubles when an insert would push the load factor
// over 3/4, re-slotting every key by its stored tag. Growth cost is
// amortized O(1) per insert and entirely off the steady-state path:
// once the working set is inserted, Record never allocates.
// maxProbe tracks the longest insert probe chain, which — with linear
// probing and no deletions — bounds every subsequent lookup's chain;
// the telemetry flow probe exports it alongside the load factor.

const (
	// chunkShift sizes the record arena chunks: 1<<chunkShift Stats
	// records (and their bitmap words) per allocation.
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1

	// tableInitSlots is the initial slot-array size (power of two).
	tableInitSlots = 64
)

// slot is one open-addressing bucket: its key's hash tag plus the
// 1-based index of its record in the arena (0 = empty).
type slot struct {
	tag uint32
	ref int32
}

// hash mixes the 5-tuple into a table index with a splitmix64-style
// finalizer. It is a pure function of the key — no per-process seed —
// so slot placement, growth points and probe lengths are identical
// across runs and shards, keeping the table's diagnostics as
// deterministic as the model counters.
func (k Key) hash() uint64 {
	a := uint64(k.Src)<<32 | uint64(k.Dst)
	b := uint64(k.Proto)<<32 | uint64(k.SrcPort)<<16 | uint64(k.DstPort)
	x := a*0x9E3779B97F4A7C15 + b
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// flowTable is the flat storage: slots plus the record and bitmap
// arenas. It is single-owner like the Tracker embedding it.
type flowTable struct {
	slots    []slot
	used     int
	maxProbe int

	// chunks/words are the arenas: chunk c holds records
	// [c*chunkLen, (c+1)*chunkLen) and words[c] their seq-window
	// bitmaps, wpf words per record.
	chunks [][]Stats
	words  [][]uint64
	n      int

	wpf     int    // bitmap words per flow (SeqWindow/64)
	seqMask uint64 // SeqWindow-1
}

// init prepares the table for a (power-of-two) sequence window.
func (ft *flowTable) init(seqWindow int) {
	ft.wpf = seqWindow / 64
	ft.seqMask = uint64(seqWindow - 1)
	ft.slots = make([]slot, tableInitSlots)
}

// at resolves a 1-based slot reference to its arena record.
func (ft *flowTable) at(ref int32) *Stats {
	idx := int(ref) - 1
	return &ft.chunks[idx>>chunkShift][idx&chunkMask]
}

// find runs the linear probe for k from its home slot. h must be
// k.hash(). It returns k's record, or — when k is absent — nil and the
// index of the empty slot that ends k's probe chain, which is where k
// would be inserted. It inlines, so a lookup or a hit costs no call.
func (ft *flowTable) find(k Key, h uint64) (*Stats, uint64) {
	mask := uint64(len(ft.slots) - 1)
	for i := h; ; i++ {
		i &= mask
		s := ft.slots[i]
		if s.ref == 0 {
			return nil, i
		}
		if s.tag == uint32(h) {
			if fs := ft.at(s.ref); fs.Key == k {
				return fs, i
			}
		}
	}
}

// lookup returns the record for k, or nil. h must be k.hash().
func (ft *flowTable) lookup(k Key, h uint64) *Stats {
	fs, _ := ft.find(k, h)
	return fs
}

// flow returns the record for k, inserting it on first sight. h must
// be k.hash(). The hit path is find alone, inlined: allocation and
// growth stay out of line in insert.
func (ft *flowTable) flow(k Key, h uint64) *Stats {
	fs, i := ft.find(k, h)
	if fs == nil {
		fs = ft.insert(k, h, i)
	}
	return fs
}

// insert adds k, absent from the table, at the empty slot i that ended
// its probe, which a grow moves: the probe then runs again.
func (ft *flowTable) insert(k Key, h, i uint64) *Stats {
	if ft.used+1 > len(ft.slots)/4*3 {
		ft.grow()
		_, i = ft.find(k, h)
	}
	s := &ft.slots[i]
	s.tag = uint32(h)
	s.ref = ft.newRecord(k)
	ft.used++
	if probe := int((i-h)&uint64(len(ft.slots)-1)) + 1; probe > ft.maxProbe {
		ft.maxProbe = probe
	}
	return ft.at(s.ref)
}

// grow doubles the slot array and re-slots every key by its tag, with
// no hash computed and no record read. The tag places a slot exactly
// where its full hash would: the int32 ref caps the table at 2^32
// slots, so a mask never reaches past the tag's 32 bits. Records do
// not move, so every *Stats stays valid. maxProbe is recomputed for
// the new geometry.
func (ft *flowTable) grow() {
	old := ft.slots
	ft.slots = make([]slot, len(old)*2)
	ft.maxProbe = 0
	mask := uint64(len(ft.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		probe := 1
		i := uint64(s.tag) & mask
		for ft.slots[i].ref != 0 {
			i = (i + 1) & mask
			probe++
		}
		ft.slots[i] = s
		if probe > ft.maxProbe {
			ft.maxProbe = probe
		}
	}
}

// newRecord appends a fresh record to the arena and returns its
// 1-based reference. A new chunk (records + bitmap words) is allocated
// every chunkLen inserts; nothing else in the steady state allocates.
func (ft *flowTable) newRecord(k Key) int32 {
	if ft.n&chunkMask == 0 {
		ft.chunks = append(ft.chunks, make([]Stats, chunkLen))
		ft.words = append(ft.words, make([]uint64, chunkLen*ft.wpf))
	}
	idx := ft.n
	ft.n++
	fs := &ft.chunks[idx>>chunkShift][idx&chunkMask]
	fs.Key = k
	blk := ft.words[idx>>chunkShift]
	off := (idx & chunkMask) * ft.wpf
	fs.seen = blk[off : off+ft.wpf : off+ft.wpf]
	fs.mask = ft.seqMask
	return int32(idx + 1)
}

// each visits every record in insertion (arena) order — the
// deterministic O(1)-per-flow iteration behind Flows, Totals and
// FootprintBytes.
func (ft *flowTable) each(f func(*Stats)) {
	for c, chunk := range ft.chunks {
		limit := chunkLen
		if c == len(ft.chunks)-1 {
			limit = ft.n - c*chunkLen
		}
		for i := 0; i < limit; i++ {
			f(&chunk[i])
		}
	}
}

// footprintBytes returns the table's resident memory: slots plus both
// arenas (lazily created latency histograms are accounted by the
// Tracker, which knows about them).
func (ft *flowTable) footprintBytes() uint64 {
	b := uint64(len(ft.slots)) * uint64(unsafe.Sizeof(slot{}))
	b += uint64(len(ft.chunks)) * chunkLen * uint64(unsafe.Sizeof(Stats{}))
	b += uint64(len(ft.words)) * uint64(chunkLen*ft.wpf) * 8
	return b
}
