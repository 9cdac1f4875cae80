package core

import "rpls/internal/field"

// LaneScratch is the reusable working storage a scheme gets from its
// executor through View.Scratch. The Batched executor hands its scratch to
// CertsLanes and DecideLanes, and the Sequential executor hands its own to
// every one-lane Certs, RoundCerts and Decide, so both paths run without
// allocating once the buffers have grown to the graph's needs. It is never
// shared: one scratch serves one executor, and one call at a time.
//
// Every accessor is nil-safe. On a nil *LaneScratch — any caller outside
// those two executors, such as Pool or Goroutines — each returns freshly
// allocated storage.
//
// Two lifetimes apply. The working buffers (Uint64s, Ints, Labels, Bytes,
// Eval) are valid until the next call of the same accessor; a scheme uses
// them within one call and must not hold on to them. Certificate storage
// from CertBytes and CertSlots comes from arenas that the executor resets
// at the start of every batch or execution (all rounds of a multi-round
// one), so certificates built there stay valid until the executor's next
// batch or execution and no longer.
//
// A third lifetime is the evaluation memo of a bound compiled scheme (see
// Plan): it belongs to one plan generation and lives until the plan is
// built again, across batches; Reset leaves it alone.
type LaneScratch struct {
	memo     memoStore
	eval     field.EvalScratch
	vals     []uint64
	ints     []int
	labels   []Label
	bytes    []byte
	arena    [][]byte // certificate chunks, reused in order batch after batch
	chunk    int      // index of the chunk being carved
	chunkOff int      // bytes of arena[chunk] handed out this batch
	slots    []Cert   // certificate-slice block being carved by CertSlots
	slotOff  int      // slots handed out of the block this batch
}

// minArenaChunk is the size of the first certificate chunk. Later chunks
// double the arena, so a batch's certificates fit in O(log) chunks while
// the arena never reserves more than twice what a batch used.
const minArenaChunk = 1 << 10

// Reset starts a new batch: certificate storage handed out since the last
// Reset is reused from here on, so the executor calls it only once every
// certificate of the previous batch is dead. It is a no-op on nil.
func (s *LaneScratch) Reset() {
	if s != nil {
		s.chunk, s.chunkOff, s.slotOff = 0, 0, 0
	}
}

// CertBytes returns n bytes of certificate storage, valid until the next
// Reset. Its contents are unspecified: writers must set every byte they
// use, as bitstring.Writer (appending into a ResetInto region) and
// bitstring.UintInto do. The arena grows on demand: when the chunks in use
// are exhausted, a new chunk of at least the arena's current size is
// added, and later batches reuse every chunk.
//
//pls:hotpath
func (s *LaneScratch) CertBytes(n int) []byte {
	if s == nil {
		return make([]byte, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	for ; s.chunk < len(s.arena); s.chunk, s.chunkOff = s.chunk+1, 0 {
		if c := s.arena[s.chunk]; len(c)-s.chunkOff >= n {
			b := c[s.chunkOff : s.chunkOff+n : s.chunkOff+n]
			s.chunkOff += n
			return b
		}
	}
	size := minArenaChunk
	for _, c := range s.arena {
		size += len(c)
	}
	size = max(size, n)
	//plsvet:allow hotalloc — arena grow on exhaustion; later batches reuse the chunk
	s.arena = append(s.arena, make([]byte, size))
	s.chunkOff = n
	return s.arena[s.chunk][:n:n]
}

// CertSlots returns n certificate slots, valid until the next Reset: the
// []Cert a one-lane Certs returns. Stale contents are not cleared, so the
// caller must write every slot. When the block runs out a new one of at
// least twice its size replaces it; the slots handed out earlier in the
// batch keep the old block alive, and later batches carve the new one.
//
//pls:hotpath
func (s *LaneScratch) CertSlots(n int) []Cert {
	if s == nil {
		return make([]Cert, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	if len(s.slots)-s.slotOff < n {
		//plsvet:allow hotalloc — block grow on exhaustion; later batches reuse the block
		s.slots = make([]Cert, max(2*len(s.slots), n, minSlotBlock))
		s.slotOff = 0
	}
	b := s.slots[s.slotOff : s.slotOff+n : s.slotOff+n]
	s.slotOff += n
	return b
}

// minSlotBlock is the size of CertSlots' first block.
const minSlotBlock = 64

// Uint64s returns a working buffer of n uint64s.
//
//pls:hotpath
func (s *LaneScratch) Uint64s(n int) []uint64 {
	if s == nil {
		return make([]uint64, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	if cap(s.vals) < n {
		s.vals = make([]uint64, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	return s.vals[:n]
}

// Ints returns a working buffer of n ints.
//
//pls:hotpath
func (s *LaneScratch) Ints(n int) []int {
	if s == nil {
		return make([]int, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	if cap(s.ints) < n {
		s.ints = make([]int, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	return s.ints[:n]
}

// Labels returns a working buffer of n labels.
//
//pls:hotpath
func (s *LaneScratch) Labels(n int) []Label {
	if s == nil {
		return make([]Label, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	if cap(s.labels) < n {
		s.labels = make([]Label, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	return s.labels[:n]
}

// Bytes returns a working buffer of n bytes, for strings a call decodes
// or rewraps (bitstring.Reader.ReadStringInto, bitstring.FromBytesInto).
//
//pls:hotpath
func (s *LaneScratch) Bytes(n int) []byte {
	if s == nil {
		return make([]byte, n) //plsvet:allow hotalloc — no scratch: the allocating one-call behaviour
	}
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n) //plsvet:allow hotalloc — capacity-guarded grow, amortized across batches
	}
	return s.bytes[:n]
}

// Eval returns the nibble-table storage for field.Poly.EvalMany, nil for
// a nil scratch (EvalMany then allocates its tables).
func (s *LaneScratch) Eval() *field.EvalScratch {
	if s == nil {
		return nil
	}
	return &s.eval
}

// memoStore is a scratch's evaluation memo: lane-major over the plan's send
// slots, lane l's entry for slot e at words[l·stride+e] with stride the
// plan's slot count, so a batch of any width finds its lanes where a wider
// one left them. words holds lanes lanes of entries of generation gen of
// plan; any other plan or generation finds it empty.
type memoStore struct {
	plan  *Plan
	gen   uint64
	lanes int
	words []uint64
}

// evalMemo returns the scratch's evaluation memo for the current
// generation of p, covering at least lanes lanes: entries recorded since p
// was last built, and the empty entry everywhere else. A rebuilt plan —
// or another one — finds every entry empty, and lanes beyond those
// recorded so far are added empty. nil scratch or plan has no memo.
//
//pls:hotpath
func (s *LaneScratch) evalMemo(p *Plan, lanes int) []uint64 {
	if s == nil || p == nil {
		return nil
	}
	m := &s.memo
	if m.plan != p || m.gen != p.gen {
		m.plan, m.gen, m.lanes, m.words = p, p.gen, 0, m.words[:0]
	}
	if lanes > m.lanes {
		n := lanes * len(p.mirror)
		if cap(m.words) < n {
			//plsvet:allow hotalloc — capacity-guarded grow; a warm scratch only regrows for a larger graph or a wider batch
			w := make([]uint64, n)
			copy(w, m.words)
			m.words = w
		} else {
			old := len(m.words)
			m.words = m.words[:n]
			clear(m.words[old:])
		}
		m.lanes = lanes
	}
	return m.words
}
