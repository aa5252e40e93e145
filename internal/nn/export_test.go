package nn

// customOp records a node with an arbitrary backward closure. Tests use
// it to build ad-hoc scalar heads (weighted sums) around the fixed op set
// without widening the production API.
func (t *Tape) customOp(data []float64, back func()) *Node {
	n := t.take(len(data))
	n.op = opCustom
	n.Data = data
	n.back = back
	return n
}

// leakyReLU records max(x, alpha*x) elementwise as a custom op, with its
// own backward: the unfused activation that tests hold the fused
// affine+LeakyReLU op against.
func (t *Tape) leakyReLU(a *Node, alpha float64) *Node {
	data := make([]float64, len(a.Data))
	for i, x := range a.Data {
		if x >= 0 {
			data[i] = x
		} else {
			data[i] = alpha * x
		}
	}
	var out *Node
	out = t.customOp(data, func() {
		for i, g := range out.Grad {
			if a.Data[i] >= 0 {
				a.Grad[i] += g
			} else {
				a.Grad[i] += alpha * g
			}
		}
	})
	return out
}

// zeroGrad clears every layer's gradient buffers, attaching them first
// to a layer that has none: outside a fit a layer holds no gradients,
// and a test that backpropagates outside one attaches them as a fit
// does.
func (m *MLP) zeroGrad() {
	for _, l := range m.Layers {
		if l.GW == nil {
			attachGrads(l)
		}
		clear(l.GW)
		clear(l.GB)
	}
}

// params returns every layer's weight and bias slices, W then B, layer
// by layer.
func (m *MLP) params() [][]float64 {
	var params [][]float64
	for _, l := range m.Layers {
		params = append(params, l.W, l.B)
	}
	return params
}

// grads returns every layer's gradient buffers, GW then GB, in the order
// of params.
func (m *MLP) grads() [][]float64 {
	var grads [][]float64
	for _, l := range m.Layers {
		grads = append(grads, l.GW, l.GB)
	}
	return grads
}

// attachGrads gives l gradient buffers of its own, where a fit lends it
// storage from its workspace.
func attachGrads(l *Linear) {
	l.AttachGrads(make([]float64, l.Out*l.In), make([]float64, l.Out))
}

// attachMirror is AttachMirror on mirror storage of its own.
func attachMirror(l *Linear) { l.AttachMirror(make([]float64, l.MirrorLen())) }

// newAdam is NewAdam on moment storage of its own.
func newAdam(lr float64, layers []*Linear) *Adam {
	return NewAdam(lr, layers, make([]float64, AdamMoments(layers)))
}
