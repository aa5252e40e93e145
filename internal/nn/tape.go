// Package nn is a small, dependency-free neural network library built for
// the COSTREAM reproduction: a tape-based reverse-mode automatic
// differentiation engine over float64 vectors, multi-layer perceptrons,
// the Adam optimizer and the losses used by the paper (MSLE for the
// regression cost metrics, binary cross-entropy for backpressure and
// query-success classification).
//
// The design favors dynamic computation graphs: COSTREAM's message-passing
// GNN builds a different graph for every query, so every forward pass
// records its operations on a Tape, and Backward replays the tape in
// reverse.
//
// Tapes are arenas: Reset rewinds a tape without freeing anything, so the
// node structs and their Data/Grad backing stores are reused by the next
// forward pass. Training loops that reset one tape per sample reach zero
// steady-state allocations on the autodiff path. Backward propagation
// dispatches on a per-node opcode instead of captured closures, which is
// what makes the node records reusable (and removes one heap allocation
// per recorded op).
package nn

// opKind identifies the operation a node records; Backward dispatches on
// it instead of invoking captured closures.
type opKind uint8

const (
	opConst opKind = iota
	opSum
	opScale
	opConcat
	opAffine      // Linear layer: W*x + b
	opAffineLReLU // fused Linear + LeakyReLU (the MLP hidden-layer hot path)
	opMSLE
	opBCE
	opCustom // test hook: arbitrary backward closure
)

// Node is one value (a vector) in the computation graph, together with its
// gradient accumulator and the compact operation record Backward replays.
type Node struct {
	Data []float64
	Grad []float64 // nil on inference tapes

	op   opKind
	a    *Node   // unary input (Scale, the affine ops, the losses)
	ins  []*Node // variadic inputs (Sum, Concat2)
	lin  *Linear // affine ops
	c    float64 // Scale factor or loss target
	back func()  // opCustom only

	buf  []float64 // owned Data backing store, reused across Reset
	gbuf []float64 // owned Grad backing store, reused across Reset
}

// Tape records the operations of one forward pass in execution order.
// The zero value is a ready-to-use training tape.
type Tape struct {
	nodes     []*Node // node pool; the first `used` entries are live
	used      int
	inference bool
	gf        []float64 // Linear.backprop's scratch, part of the arena
}

// NewTape returns an empty training tape.
func NewTape() *Tape { return &Tape{} }

// NewInferenceTape returns a tape that records forward values only: nodes
// carry no gradient buffers and Backward panics. It is the cheap mode for
// validation and evaluation passes that read loss values but never
// backpropagate.
func NewInferenceTape() *Tape { return &Tape{inference: true} }

// Reset rewinds the tape so it can be reused without reallocating: the
// node structs and their backing stores stay pooled and are handed out
// again by subsequent ops.
func (t *Tape) Reset() { t.used = 0 }

// take hands out the next pooled node (allocating only when the pool is
// exhausted) without touching its Data. Grad is sized and zeroed on
// training tapes and nil on inference tapes.
func (t *Tape) take(dim int) *Node {
	var n *Node
	if t.used < len(t.nodes) {
		n = t.nodes[t.used]
	} else {
		n = &Node{}
		t.nodes = append(t.nodes, n)
	}
	t.used++
	n.ins = n.ins[:0]
	n.back = nil
	if t.inference {
		n.Grad = nil
		return n
	}
	if cap(n.gbuf) < dim {
		n.gbuf = make([]float64, dim)
	}
	n.Grad = n.gbuf[:dim]
	clear(n.Grad)
	return n
}

// alloc hands out a pooled node whose Data is an owned buffer of length
// dim (contents unspecified; the recording op overwrites every element).
func (t *Tape) alloc(dim int) *Node {
	n := t.take(dim)
	if cap(n.buf) < dim {
		n.buf = make([]float64, dim)
	}
	n.Data = n.buf[:dim]
	return n
}

// Const records a leaf node that requires no gradient propagation (its
// gradient is still accumulated but goes nowhere). The node aliases data;
// it is never written through.
func (t *Tape) Const(data []float64) *Node {
	n := t.take(len(data))
	n.op = opConst
	n.Data = data
	return n
}

// Backward seeds the gradient of the scalar output node with 1 and
// propagates gradients through the tape in reverse recording order.
// Parameter gradients accumulate into the layers' gradient buffers.
func (t *Tape) Backward(out *Node) {
	if t.inference {
		panic("nn: Backward on an inference tape")
	}
	if len(out.Data) != 1 {
		panic("nn: Backward requires a scalar output node")
	}
	out.Grad[0] = 1
	for i := t.used - 1; i >= 0; i-- {
		t.nodes[i].backprop(t)
	}
}

// backprop propagates the node's accumulated gradient to its inputs.
func (n *Node) backprop(t *Tape) {
	switch n.op {
	case opConst:
	case opSum:
		for _, v := range n.ins {
			for i, g := range n.Grad {
				v.Grad[i] += g
			}
		}
	case opScale:
		for i, g := range n.Grad {
			n.a.Grad[i] += n.c * g
		}
	case opConcat:
		off := 0
		for _, v := range n.ins {
			for i := range v.Data {
				v.Grad[i] += n.Grad[off+i]
			}
			off += len(v.Data)
		}
	case opAffine:
		n.lin.backprop(t, n.Grad, n.a, nil)
	case opAffineLReLU:
		n.lin.backprop(t, n.Grad, n.a, n)
	case opMSLE:
		diff := n.a.Data[0] - n.c
		n.a.Grad[0] += n.Grad[0] * 2 * diff
	case opBCE:
		// dL/dx = sigmoid(x) - y
		n.a.Grad[0] += n.Grad[0] * (sigmoid(n.a.Data[0]) - n.c)
	case opCustom:
		if n.back != nil {
			n.back()
		}
	}
}

// Sum records the elementwise sum of one or more equally sized vectors.
// The input slice is copied into the tape's own records, so callers may
// pass a reused scratch buffer.
func (t *Tape) Sum(vs ...*Node) *Node {
	if len(vs) == 0 {
		panic("nn: Sum of nothing")
	}
	dim := len(vs[0].Data)
	out := t.alloc(dim)
	clear(out.Data)
	for _, v := range vs {
		if len(v.Data) != dim {
			panic("nn: Sum dimension mismatch")
		}
		for i, x := range v.Data {
			out.Data[i] += x
		}
	}
	out.op = opSum
	out.ins = append(out.ins, vs...)
	return out
}

// Scale records c*a for a scalar constant c.
func (t *Tape) Scale(a *Node, c float64) *Node {
	out := t.alloc(len(a.Data))
	for i, x := range a.Data {
		out.Data[i] = c * x
	}
	out.op, out.a, out.c = opScale, a, c
	return out
}

// Concat2 records the concatenation of two vectors: the GNN's update-MLP
// input concat(aggregate, own).
func (t *Tape) Concat2(a, b *Node) *Node {
	out := t.alloc(len(a.Data) + len(b.Data))
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	out.op = opConcat
	out.ins = append(out.ins, a, b)
	return out
}
