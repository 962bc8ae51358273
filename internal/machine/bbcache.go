// Basic-block dispatch cache: the translation layer behind the fused fast
// path (stepfused.go).
//
// On first entry to a block the fused loop translates its decoded
// instructions into a compact pre-resolved execution form — an []xinstr —
// and caches it on the code (code.xb). Translation buys three things over
// per-instruction interpretation:
//
//   - the per-instruction overheads (instruction count, budget check,
//     interrupt poll, predicate test, cost charge, dispatch switch) are
//     hoisted to once per xinstr, and an xinstr can cover many source
//     instructions (a full micro group plus its folded constants and
//     trailing branch);
//   - the dominant dynamic pairs get dedicated superinstruction handlers
//     (compare+branch, load+store, load+hook — see DESIGN.md for the
//     measured pair distribution this set was chosen from);
//   - remaining straight-line ALU runs execute as micro groups whose
//     members skip everything but the operation itself, with single-use
//     constants folded into their consumers' immediate operands.
//
// Cycle and statistics accounting must stay bit-identical to the reference
// interpreter (machine.go refBlock); the fusion rules below only merge
// instruction sequences with no observation point (hierarchy access, hook
// call, nested call) between the merged members, so charging their fixed
// costs in one lump is invisible. Anything the translator cannot prove safe
// — predicated terminators, unknown opcodes — marks the whole block
// interp-only and the fused loop runs it through refBlock instead.
package machine

import "stridepf/internal/ir"

// uKind enumerates micro operations: the ALU subset of the ISA, executed
// inside xALU/xALUBr groups without per-instruction dispatch overhead.
type uKind uint8

const (
	uNop uKind = iota
	uConst
	uMov
	uAdd
	uSub
	uMul
	uDiv
	uRem
	uAnd
	uOr
	uXor
	uShl
	uShr
	uAddI
	uShlI
	uShrI
	uAndI
	// uMulI/uOrI/uXorI have no ISA counterpart; the translator's constant
	// folding synthesises them from an OpConst feeding a single-use binary op.
	uMulI
	uOrI
	uXorI
	uCmpEQ
	uCmpNE
	uCmpLT
	uCmpLE
	uCmpGT
	uCmpGE
)

// micro is one pre-resolved ALU operation within a group.
type micro struct {
	kind   uKind
	dst    int32
	s0, s1 int32
	imm    int64
}

// xkind dispatches a fused-form instruction.
type xkind uint8

const (
	// xALU executes up to groupMax micros (predicated only when nm==1).
	xALU xkind = iota
	// xALUBr is xALU with a folded trailing unconditional branch to t0.
	xALUBr
	// xEqBr..xGeBr fuse a compare with the conditional branch consuming its
	// result: the flag is still written to dst (later blocks may read it),
	// then control transfers to t0 (true) or t1 (false).
	xEqBr
	xNeBr
	xLtBr
	xLeBr
	xGtBr
	xGeBr
	// xEqBrI..xGeBrI are the immediate forms: a dead single-use OpConst
	// folded into the compare, so the whole const+compare+branch triple is
	// one dispatch comparing s0 against imm.
	xEqBrI
	xNeBrI
	xLtBrI
	xLeBrI
	xGtBrI
	xGeBrI
	// xBr / xCondBr / xRet are the unfused terminators.
	xBr
	xCondBr
	xRet
	// xLoad / xSpecLoad / xStore / xPrefetch are unfused memory operations.
	xLoad
	xSpecLoad
	xStore
	xPrefetch
	// xLoadStore presents a load (dst, s0, imm, loadSlot) and the following
	// store (s2, s3, imm2) to the cache hierarchy as one batch. The fixed
	// costs ride on the batch refs, so cost is 0 here.
	xLoadStore
	// xLoadHook is a load immediately feeding a profiling hook; the handler
	// charges the two occupancy cycles around the access itself.
	xLoadHook
	// xHook / xCall / xAlloc / xRand are the remaining singletons.
	xHook
	xCall
	xAlloc
	xRand
)

// groupMax bounds how many micros one xALU group carries.
const groupMax = 6

// xinstr is one fused-form instruction. Exactly one kind's field subset is
// meaningful; nsrc source instructions and cost fixed cycles are charged up
// front by the fused loop.
type xinstr struct {
	kind     xkind
	nsrc     uint8
	nm       uint8 // live micros in mi (xALU/xALUBr)
	pfClass  uint8
	cost     uint32
	dst      int32
	s0, s1   int32
	s2, s3   int32 // fused store operands (xLoadStore)
	pred     int32 // qualifying predicate register, or -1 (singletons only)
	t0, t1   int32
	loadSlot int32
	imm      int64
	imm2     int64 // fused store displacement (xLoadStore)
	mi       [groupMax]micro
	hook     HookFunc
	callee   *code
	args     []int32
	// xb0/xb1 are the terminator's successor translations, linked by
	// translateCode once every block of the function is translated, so taken
	// branches jump pointer-to-pointer without re-indexing code.xb.
	xb0, xb1 *xblock
}

// xblock is the cached fused translation of one basic block.
type xblock struct {
	ins []xinstr
	// bi is the block's index in code.blocks, for the refBlock escape.
	bi int32
	// interp marks a block the translator refused; the fused loop runs it
	// through refBlock every entry.
	interp bool
	// limit is MaxSteps minus the block's source instruction count
	// (saturating at zero): the fused loop's conservative budget guard
	// (Instrs > limit escapes to the reference interpreter, which delivers
	// ErrMaxSteps on the exact instruction).
	limit uint64
}

// aluKind maps an ALU-class opcode to its micro kind.
func aluKind(op ir.Opcode) (uKind, bool) {
	switch op {
	case ir.OpNop:
		return uNop, true
	case ir.OpConst:
		return uConst, true
	case ir.OpMov:
		return uMov, true
	case ir.OpAdd:
		return uAdd, true
	case ir.OpSub:
		return uSub, true
	case ir.OpMul:
		return uMul, true
	case ir.OpDiv:
		return uDiv, true
	case ir.OpRem:
		return uRem, true
	case ir.OpAnd:
		return uAnd, true
	case ir.OpOr:
		return uOr, true
	case ir.OpXor:
		return uXor, true
	case ir.OpShl:
		return uShl, true
	case ir.OpShr:
		return uShr, true
	case ir.OpAddI:
		return uAddI, true
	case ir.OpShlI:
		return uShlI, true
	case ir.OpShrI:
		return uShrI, true
	case ir.OpAndI:
		return uAndI, true
	case ir.OpCmpEQ:
		return uCmpEQ, true
	case ir.OpCmpNE:
		return uCmpNE, true
	case ir.OpCmpLT:
		return uCmpLT, true
	case ir.OpCmpLE:
		return uCmpLE, true
	case ir.OpCmpGT:
		return uCmpGT, true
	case ir.OpCmpGE:
		return uCmpGE, true
	}
	return 0, false
}

// cmpBrKind maps a compare micro kind to its fused compare+branch handler.
func cmpBrKind(u uKind) (xkind, bool) {
	switch u {
	case uCmpEQ:
		return xEqBr, true
	case uCmpNE:
		return xNeBr, true
	case uCmpLT:
		return xLtBr, true
	case uCmpLE:
		return xLeBr, true
	case uCmpGT:
		return xGtBr, true
	case uCmpGE:
		return xGeBr, true
	}
	return 0, false
}

// cmpBrIKind maps a compare opcode to its immediate compare+branch handler.
// constLeft flips the relation so the immediate always sits on the right:
// imm < x is x > imm, and so on (EQ/NE are symmetric).
func cmpBrIKind(op ir.Opcode, constLeft bool) (xkind, bool) {
	switch op {
	case ir.OpCmpEQ:
		return xEqBrI, true
	case ir.OpCmpNE:
		return xNeBrI, true
	case ir.OpCmpLT:
		if constLeft {
			return xGtBrI, true
		}
		return xLtBrI, true
	case ir.OpCmpLE:
		if constLeft {
			return xGeBrI, true
		}
		return xLeBrI, true
	case ir.OpCmpGT:
		if constLeft {
			return xLtBrI, true
		}
		return xGtBrI, true
	case ir.OpCmpGE:
		if constLeft {
			return xLeBrI, true
		}
		return xGeBrI, true
	}
	return 0, false
}

// immALU maps a binary ALU opcode with one constant operand to its
// immediate-form micro. side 0 means the constant is the left operand
// (s0), side 1 the right (s1); non-commutative ops fold only on the side
// an existing or synthesised immediate form can express. The caller
// negates the immediate for OpSub (x - c becomes x + (-c), identical
// under two's-complement wrapping even at MinInt64).
func immALU(op ir.Opcode, side int) (uKind, bool) {
	switch op {
	case ir.OpAdd:
		return uAddI, true
	case ir.OpMul:
		return uMulI, true
	case ir.OpAnd:
		return uAndI, true
	case ir.OpOr:
		return uOrI, true
	case ir.OpXor:
		return uXorI, true
	case ir.OpSub:
		if side == 1 {
			return uAddI, true
		}
	case ir.OpShl:
		if side == 1 {
			return uShlI, true
		}
	case ir.OpShr:
		if side == 1 {
			return uShrI, true
		}
	}
	return 0, false
}

// countReads tallies the static read sites of every register across the
// function, exactly mirroring which registers refBlock actually reads per
// opcode. Unknown opcodes conservatively count everything they could read —
// overcounting only disables folding, undercounting would elide a live
// write.
func countReads(c *code) []int32 {
	counts := make([]int32, c.nregs)
	bump := func(r int32) {
		if r >= 0 && int(r) < len(counts) {
			counts[r]++
		}
	}
	for _, blk := range c.blocks {
		for ii := range blk {
			d := &blk[ii]
			bump(d.pred)
			switch d.op {
			case ir.OpNop, ir.OpConst, ir.OpBr:
			case ir.OpMov, ir.OpAddI, ir.OpShlI, ir.OpShrI, ir.OpAndI,
				ir.OpLoad, ir.OpSpecLoad, ir.OpPrefetch, ir.OpAlloc,
				ir.OpRand, ir.OpCondBr, ir.OpRet:
				bump(d.s0)
			case ir.OpStore:
				bump(d.s0)
				bump(d.s1)
			case ir.OpCall, ir.OpHook:
				for _, a := range d.args {
					bump(a)
				}
			default:
				bump(d.s0)
				bump(d.s1)
				for _, a := range d.args {
					bump(a)
				}
			}
		}
	}
	return counts
}

// translateCode builds the fused execution form of every block of c and
// links the terminators' successor pointers. Translation is eager — the
// whole function on first fused entry — so a taken branch never has to ask
// whether its target is translated yet.
func (m *Machine) translateCode(c *code) {
	if c.regReads == nil {
		c.regReads = countReads(c)
	}
	c.xb = make([]*xblock, len(c.blocks))
	for bi := range c.blocks {
		c.xb[bi] = m.translateBlock(c, int32(bi))
	}
	for _, xb := range c.xb {
		for i := range xb.ins {
			x := &xb.ins[i]
			switch x.kind {
			case xALUBr, xBr:
				x.xb0 = c.xb[x.t0]
			case xEqBr, xNeBr, xLtBr, xLeBr, xGtBr, xGeBr,
				xEqBrI, xNeBrI, xLtBrI, xLeBrI, xGtBrI, xGeBrI, xCondBr:
				x.xb0, x.xb1 = c.xb[x.t0], c.xb[x.t1]
			}
		}
	}
}

// translateBlock builds the fused execution form of block bi of c. Hook
// pointers are copied from the decoded stream, so the translation is only
// valid for the hook bindings resolveHooks installed before the current Run
// — resolveHooks drops code.xb whenever it rebinds.
func (m *Machine) translateBlock(c *code, bi int32) *xblock {
	blk := c.blocks[bi]
	xb := &xblock{bi: bi}
	if n := uint64(len(blk)); m.cfg.MaxSteps > n {
		xb.limit = m.cfg.MaxSteps - n
	}

	var g [groupMax]micro
	ng := 0   // micros pending in g
	gsrc := 0 // source instructions those micros cover (folds cover two)
	gcost := uint32(0)
	flush := func() {
		if ng == 0 {
			return
		}
		x := xinstr{kind: xALU, nsrc: uint8(gsrc), nm: uint8(ng), cost: gcost, pred: -1}
		copy(x.mi[:], g[:ng])
		xb.ins = append(xb.ins, x)
		ng, gsrc, gcost = 0, 0, 0
	}

	for ii := 0; ii < len(blk); ii++ {
		d := &blk[ii]

		if d.pred >= 0 {
			// Predicated instructions run as singletons carrying the
			// qualifying predicate: the fused loop charges their slot, tests
			// the predicate, and squashes exactly like the reference loop.
			// Predication is pervasive in prefetch-inserted code, so falling
			// back to interpretation here would forfeit the fast path on the
			// very workloads that matter.
			if uk, ok := aluKind(d.op); ok {
				flush()
				xb.ins = append(xb.ins, xinstr{
					kind: xALU, nsrc: 1, nm: 1, cost: uint32(d.cost), pred: d.pred,
					mi: [groupMax]micro{{kind: uk, dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm}},
				})
				continue
			}
			switch d.op {
			case ir.OpLoad:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xLoad, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot})
			case ir.OpSpecLoad:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xSpecLoad, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, dst: d.dst, s0: d.s0, imm: d.imm})
			case ir.OpStore:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xStore, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, s0: d.s0, s1: d.s1, imm: d.imm})
			case ir.OpPrefetch:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xPrefetch, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, s0: d.s0, imm: d.imm, pfClass: d.pfClass})
			case ir.OpAlloc:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xAlloc, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, dst: d.dst, s0: d.s0})
			case ir.OpRand:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xRand, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, dst: d.dst, s0: d.s0})
			case ir.OpHook:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xHook, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, hook: d.hook, args: d.args})
			case ir.OpCall:
				flush()
				xb.ins = append(xb.ins, xinstr{kind: xCall, nsrc: 1, cost: uint32(d.cost),
					pred: d.pred, dst: d.dst, callee: d.callee, args: d.args})
			default:
				// A predicated terminator (which the IR builders never emit)
				// or an unknown opcode: refuse the block rather than guess.
				return &xblock{bi: bi, interp: true}
			}
			continue
		}

		// Constant folding: an OpConst whose destination's only static read
		// site in the whole function is the immediately following
		// (unpredicated) instruction folds into that instruction's immediate
		// operand, and the now-dead register write disappears. The builders'
		// fresh-temp-per-Const idiom makes this the common case. The covered
		// source count and cost still include the const, so instruction and
		// cycle accounting stay identical to the reference interpreter.
		if d.op == ir.OpConst && ii+1 < len(blk) && c.regReads[d.dst] == 1 {
			n := &blk[ii+1]
			if n.pred < 0 {
				// Triple: const + compare + branch-on-compare becomes one
				// immediate compare+branch dispatch.
				if _, isCmp := cmpBrIKind(n.op, false); isCmp && ii+2 < len(blk) {
					onL, onR := n.s0 == d.dst, n.s1 == d.dst
					if onL != onR {
						if t := &blk[ii+2]; t.op == ir.OpCondBr && t.pred < 0 && t.s0 == n.dst {
							xk, _ := cmpBrIKind(n.op, onL)
							surv := n.s0
							if onL {
								surv = n.s1
							}
							flush()
							xb.ins = append(xb.ins, xinstr{
								kind: xk, nsrc: 3, cost: uint32(d.cost + n.cost + t.cost),
								pred: -1, dst: n.dst, s0: surv, imm: d.imm,
								t0: t.t0, t1: t.t1,
							})
							ii += 2
							continue
						}
					}
				}
				// Pair: const + binary ALU becomes one immediate-form micro.
				if onL, onR := n.s0 == d.dst, n.s1 == d.dst; onL != onR {
					side := 0
					if onR {
						side = 1
					}
					if mk, ok := immALU(n.op, side); ok {
						imm := d.imm
						if n.op == ir.OpSub {
							imm = -imm
						}
						surv := n.s0
						if onL {
							surv = n.s1
						}
						if ng == groupMax {
							flush()
						}
						g[ng] = micro{kind: mk, dst: n.dst, s0: surv, imm: imm}
						ng++
						gsrc += 2
						gcost += uint32(d.cost + n.cost)
						ii++
						continue
					}
				}
				// Pair: const + mov collapses to a constant write of the mov
				// target.
				if n.op == ir.OpMov && n.s0 == d.dst {
					if ng == groupMax {
						flush()
					}
					g[ng] = micro{kind: uConst, dst: n.dst, imm: d.imm}
					ng++
					gsrc += 2
					gcost += uint32(d.cost + n.cost)
					ii++
					continue
				}
			}
		}

		if uk, ok := aluKind(d.op); ok {
			// Compare feeding the immediately following conditional branch on
			// its own result fuses into a dedicated handler — by far the
			// hottest dynamic pair (see DESIGN.md).
			if xk, isCmp := cmpBrKind(uk); isCmp && ii+1 < len(blk) {
				n := &blk[ii+1]
				if n.op == ir.OpCondBr && n.pred < 0 && n.s0 == d.dst {
					flush()
					xb.ins = append(xb.ins, xinstr{
						kind: xk, nsrc: 2, cost: uint32(d.cost + n.cost), pred: -1,
						dst: d.dst, s0: d.s0, s1: d.s1, t0: n.t0, t1: n.t1,
					})
					ii++
					continue
				}
			}
			if ng == groupMax {
				flush()
			}
			g[ng] = micro{kind: uk, dst: d.dst, s0: d.s0, s1: d.s1, imm: d.imm}
			ng++
			gsrc++
			gcost += uint32(d.cost)
			continue
		}

		switch d.op {
		case ir.OpLoad:
			if ii+1 < len(blk) {
				n := &blk[ii+1]
				// load+store fuses only when the store reads neither its
				// address nor its value from the load's destination; then the
				// store operands are identical before and after the load
				// retires and the two refs can batch.
				if n.op == ir.OpStore && n.pred < 0 && n.s0 != d.dst && n.s1 != d.dst {
					flush()
					xb.ins = append(xb.ins, xinstr{
						kind: xLoadStore, nsrc: 2, cost: 0, pred: -1,
						dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot,
						s2: n.s0, s3: n.s1, imm2: n.imm,
					})
					ii++
					continue
				}
				// load+hook is the instrumented-code signature: the profiled
				// load immediately handing its address/value to strideProf.
				if n.op == ir.OpHook && n.pred < 0 {
					flush()
					xb.ins = append(xb.ins, xinstr{
						kind: xLoadHook, nsrc: 2, cost: 0, pred: -1,
						dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot,
						hook: n.hook, args: n.args,
					})
					ii++
					continue
				}
			}
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xLoad, nsrc: 1, cost: uint32(d.cost),
				pred: -1, dst: d.dst, s0: d.s0, imm: d.imm, loadSlot: d.loadSlot})
		case ir.OpSpecLoad:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xSpecLoad, nsrc: 1, cost: uint32(d.cost),
				pred: -1, dst: d.dst, s0: d.s0, imm: d.imm})
		case ir.OpStore:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xStore, nsrc: 1, cost: uint32(d.cost),
				pred: -1, s0: d.s0, s1: d.s1, imm: d.imm})
		case ir.OpPrefetch:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xPrefetch, nsrc: 1, cost: uint32(d.cost),
				pred: -1, s0: d.s0, imm: d.imm, pfClass: d.pfClass})
		case ir.OpAlloc:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xAlloc, nsrc: 1, cost: uint32(d.cost),
				pred: -1, dst: d.dst, s0: d.s0})
		case ir.OpRand:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xRand, nsrc: 1, cost: uint32(d.cost),
				pred: -1, dst: d.dst, s0: d.s0})
		case ir.OpHook:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xHook, nsrc: 1, cost: uint32(d.cost),
				pred: -1, hook: d.hook, args: d.args})
		case ir.OpCall:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xCall, nsrc: 1, cost: uint32(d.cost),
				pred: -1, dst: d.dst, callee: d.callee, args: d.args})

		case ir.OpBr:
			if ng > 0 {
				// Fold the branch into the pending ALU group: the group's
				// last micro and the transfer dispatch as one.
				x := xinstr{kind: xALUBr, nsrc: uint8(gsrc) + 1, nm: uint8(ng),
					cost: gcost + uint32(d.cost), pred: -1, t0: d.t0}
				copy(x.mi[:], g[:ng])
				xb.ins = append(xb.ins, x)
				ng, gsrc, gcost = 0, 0, 0
			} else {
				xb.ins = append(xb.ins, xinstr{kind: xBr, nsrc: 1, cost: uint32(d.cost),
					pred: -1, t0: d.t0})
			}
		case ir.OpCondBr:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xCondBr, nsrc: 1, cost: uint32(d.cost),
				pred: -1, s0: d.s0, t0: d.t0, t1: d.t1})
		case ir.OpRet:
			flush()
			xb.ins = append(xb.ins, xinstr{kind: xRet, nsrc: 1, cost: uint32(d.cost),
				pred: -1, s0: d.s0})

		default:
			return &xblock{bi: bi, interp: true}
		}
	}
	// A block without a terminator (rejected by the verifier, but kept
	// semantically aligned with refBlock): any pending group still executes
	// before the fused loop reports the missing terminator.
	flush()
	return xb
}
