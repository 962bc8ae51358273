package workloads

import (
	"stridepf/internal/ir"
	"stridepf/internal/machine"
)

// ---- IR construction helpers ----

// forLoop emits "for (i = 0; i < n; i++) { body(i) }". The builder is left
// positioned at the loop's exit block. body must not branch out of the loop.
func forLoop(bl *ir.Builder, n ir.Reg, hint string, body func(i ir.Reg)) {
	head := bl.Block(hint + "_head")
	bdy := bl.Block(hint + "_body")
	exit := bl.Block(hint + "_exit")

	i := bl.Const(0)
	bl.Br(head)

	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), bdy, exit)

	bl.At(bdy)
	body(i)
	bl.AddITo(i, i, 1)
	bl.Br(head)

	bl.At(exit)
}

// whileNonZero emits "while (p != 0) { body() }"; body must advance p.
func whileNonZero(bl *ir.Builder, p ir.Reg, hint string, body func()) {
	head := bl.Block(hint + "_head")
	bdy := bl.Block(hint + "_body")
	exit := bl.Block(hint + "_exit")

	zero := bl.Const(0)
	bl.Br(head)

	bl.At(head)
	bl.CondBr(bl.CmpNE(p, zero), bdy, exit)

	bl.At(bdy)
	body()
	bl.Br(head)

	bl.At(exit)
}

// burnInline emits n straight-line division-based rounds accumulating into
// acc. Divisions are the cycle-dense filler (8 cycles per instruction), so
// a loop body's compute weight can be set without inflating the dynamic
// instruction count. c3 must hold a non-zero constant.
func burnInline(bl *ir.Builder, acc, c3 ir.Reg, n int) {
	for i := 0; i < n; i++ {
		t := bl.Div(acc, c3)
		bl.Mov(acc, bl.AddI(bl.Xor(t, acc), 2*int64(i)+1))
	}
}

// loadGlobal emits a load of global slot i into a fresh register.
func loadGlobal(bl *ir.Builder, slot int) ir.Reg {
	base := bl.Const(int64(Global(slot)))
	return bl.Load(base, 0).Dst
}

// ---- input-generation helpers (run at Setup time, in Go) ----

// xrng is a small deterministic generator for input layout decisions,
// independent of the machine's OpRand stream.
type xrng uint64

func newRng(seed uint64) *xrng {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	r := xrng(seed)
	return &r
}

func (r *xrng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = xrng(x)
	return x * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *xrng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// chance reports true with probability p (0..1).
func (r *xrng) chance(p float64) bool {
	return float64(r.next()%1_000_000)/1_000_000 < p
}

// listSpec describes a linked-list layout.
type listSpec struct {
	// N is the node count.
	N int
	// NodeSize is the allocation size of each node in bytes.
	NodeSize int64
	// NextOff is the byte offset of the next-pointer field.
	NextOff int64
	// Regularity is the fraction of nodes allocated in traversal order
	// (constant stride); the remainder are placed in a scattered area,
	// breaking the stride at those links.
	Regularity float64
	// Gap, when non-zero, inserts an allocation gap of Gap bytes after
	// every GapEvery nodes, creating a phased (multi-stride) layout.
	Gap      int64
	GapEvery int
}

// buildList allocates and links a list per spec, storing node index i's
// payload (the value i+1) at offset 0. It returns the head address.
//
// Regular nodes are bump-allocated in traversal order, so following the
// next pointers yields a constant address stride — the effect the paper
// attributes to programs (parser, mcf) that allocate objects in the order
// they later reference them. Irregular nodes are placed in a shuffled
// side region, breaking the stride at those links.
func buildList(m *machine.Machine, spec listSpec, rng *xrng) uint64 {
	irregular := make([]bool, spec.N)
	nScatter := 0
	for i := range irregular {
		if spec.Regularity < 1 && !rng.chance(spec.Regularity) {
			irregular[i] = true
			nScatter++
		}
	}

	// Shuffled slots in a separate, widely spaced region.
	var scatterSlots []uint64
	if nScatter > 0 {
		scatterStride := spec.NodeSize * 9
		base := m.Heap.Alloc(int64(nScatter+1) * scatterStride)
		perm := make([]int, nScatter)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		scatterSlots = make([]uint64, nScatter)
		for i, p := range perm {
			scatterSlots[i] = base + uint64(p)*uint64(scatterStride)
		}
	}

	addrs := make([]uint64, spec.N)
	si := 0
	for i := 0; i < spec.N; i++ {
		if irregular[i] {
			addrs[i] = scatterSlots[si]
			si++
			continue
		}
		addrs[i] = m.Heap.Alloc(spec.NodeSize)
		if spec.Gap > 0 && spec.GapEvery > 0 && (i+1)%spec.GapEvery == 0 {
			m.Heap.AllocGap(spec.Gap)
		}
	}

	for i := 0; i < spec.N; i++ {
		m.Mem.Store(addrs[i], int64(i+1))
		var next int64
		if i+1 < spec.N {
			next = int64(addrs[i+1])
		}
		m.Mem.Store(addrs[i]+uint64(spec.NextOff), next)
	}
	return addrs[0]
}

// buildArray allocates n 8-byte words, fills word i with fill(i), and
// returns the base address.
func buildArray(m *machine.Machine, n int, fill func(i int) int64) uint64 {
	base := m.Heap.Alloc(int64(n) * 8)
	for i := 0; i < n; i++ {
		m.Mem.Store(base+8*uint64(i), fill(i))
	}
	return base
}

// touchRegion maps every page of [base, base+size) so prefetches into the
// region are honoured.
func touchRegion(m *machine.Machine, base, size uint64) {
	for a := base &^ 0x7fff; a < base+size; a += 0x8000 {
		if !m.Mem.Mapped(a) {
			m.Mem.Store(a, m.Mem.Load(a))
		}
	}
}
