package machine

import (
	"testing"

	"stridepf/internal/ir"
)

// BenchmarkInterpreterALU measures raw interpretation speed on an
// arithmetic loop (instructions per b.N iteration: ~6).
func BenchmarkInterpreterALU(b *testing.B) {
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	acc := bl.Const(1)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	bl.Mov(acc, bl.Add(bl.Xor(acc, i), acc))
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMachineThroughput measures end-to-end interpreter throughput in
// simulated instructions per second on a mixed workload: pointer-chasing
// loads, stores, ALU work and branches in roughly the proportions the paper
// workloads exhibit. It is a quick local check; the recorded interpreter
// throughput is perfbench's machine.fused_minstrs_per_s on the real
// workloads (see perfbench/README.md).
func BenchmarkMachineThroughput(b *testing.B) {
	const nodes = 1 << 12
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	even := bl.Block("even")
	odd := bl.Block("odd")
	tail := bl.Block("tail")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	base := bl.Const(0x4000_0000)
	p := bl.Const(0x4000_0000)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	v := bl.Load(p, 0) // next pointer
	bl.Store(p, 8, acc)
	bl.Mov(acc, bl.Add(acc, bl.Xor(v.Dst, i)))
	parity := bl.And(i, bl.Const(1))
	bl.CondBr(bl.CmpEQ(parity, bl.Const(0)), even, odd)
	bl.At(even)
	bl.Mov(acc, bl.Add(acc, bl.Const(3)))
	bl.Br(tail)
	bl.At(odd)
	bl.Mov(acc, bl.Sub(acc, bl.Const(1)))
	bl.Br(tail)
	bl.At(tail)
	bl.Mov(p, bl.Add(base, bl.Mul(bl.And(v.Dst, bl.Const(nodes-1)), bl.Const(64))))
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	// Scatter "next" pointers through the node array so the loads wander.
	for k := uint64(0); k < nodes; k++ {
		m.Mem.Store(0x4000_0000+k*64, int64((k*2654435761)%nodes))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	st := m.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Instrs)/secs, "instrs/s")
	}
	b.ReportMetric(float64(st.Instrs)/float64(b.N), "instrs/op")
}

// BenchmarkMachineThroughputRef is BenchmarkMachineThroughput forced onto
// the per-instruction reference interpreter, so the block-cache speedup is
// measurable as the ratio of the two on the same machine and load.
func BenchmarkMachineThroughputRef(b *testing.B) {
	const nodes = 1 << 12
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	even := bl.Block("even")
	odd := bl.Block("odd")
	tail := bl.Block("tail")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	base := bl.Const(0x4000_0000)
	p := bl.Const(0x4000_0000)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	v := bl.Load(p, 0)
	bl.Store(p, 8, acc)
	bl.Mov(acc, bl.Add(acc, bl.Xor(v.Dst, i)))
	parity := bl.And(i, bl.Const(1))
	bl.CondBr(bl.CmpEQ(parity, bl.Const(0)), even, odd)
	bl.At(even)
	bl.Mov(acc, bl.Add(acc, bl.Const(3)))
	bl.Br(tail)
	bl.At(odd)
	bl.Mov(acc, bl.Sub(acc, bl.Const(1)))
	bl.Br(tail)
	bl.At(tail)
	bl.Mov(p, bl.Add(base, bl.Mul(bl.And(v.Dst, bl.Const(nodes-1)), bl.Const(64))))
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}), WithDisableBlockCache())
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < nodes; k++ {
		m.Mem.Store(0x4000_0000+k*64, int64((k*2654435761)%nodes))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	st := m.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Instrs)/secs, "instrs/s")
	}
	b.ReportMetric(float64(st.Instrs)/float64(b.N), "instrs/op")
}

// BenchmarkInterpreterMemory measures interpretation with one load per
// iteration through the cache hierarchy.
func BenchmarkInterpreterMemory(b *testing.B) {
	bl := ir.NewBuilder("main")
	head := bl.Block("head")
	body := bl.Block("body")
	exit := bl.Block("exit")
	n := bl.Const(int64(b.N))
	i := bl.Const(0)
	p := bl.Const(0x4000_0000)
	acc := bl.Const(0)
	bl.Br(head)
	bl.At(head)
	bl.CondBr(bl.CmpLT(i, n), body, exit)
	bl.At(body)
	v := bl.Load(p, 0)
	bl.Mov(acc, bl.Add(acc, v.Dst))
	bl.AddITo(p, p, 64)
	bl.AddITo(i, i, 1)
	bl.Br(head)
	bl.At(exit)
	bl.Ret(acc)
	prog := ir.NewProgram()
	prog.Add(bl.Finish())

	m, err := New(prog, WithConfig(Config{MaxSteps: 1 << 62}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}
