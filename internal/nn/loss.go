package nn

import "math"

// MSLELoss records the Mean Squared Logarithmic Error between a scalar
// prediction node (interpreted in log1p space when logSpace is false) and
// the raw target y:
//
//	L = (log(1+y) - log(1+yhat))^2
//
// COSTREAM's regression heads predict z = log1p(cost) directly, which makes
// MSLE a plain squared error in the model's output space and keeps the
// paper's loss exactly (Section IV-A). Use ExpM1 to map predictions back.
func MSLELoss(t *Tape, zhat *Node, y float64) *Node {
	if len(zhat.Data) != 1 {
		panic("nn: MSLELoss requires scalar prediction")
	}
	z := math.Log1p(y)
	diff := zhat.Data[0] - z
	out := t.alloc(1)
	out.Data[0] = diff * diff
	out.op, out.a, out.c = opMSLE, zhat, z
	return out
}

// BCEWithLogitsLoss records binary cross-entropy between a scalar logit
// node and the binary target y in {0,1}, computed in a numerically stable
// form: L = max(x,0) - x*y + log(1+exp(-|x|)).
func BCEWithLogitsLoss(t *Tape, logit *Node, y float64) *Node {
	if len(logit.Data) != 1 {
		panic("nn: BCEWithLogitsLoss requires scalar logit")
	}
	x := logit.Data[0]
	loss := math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	out := t.alloc(1)
	out.Data[0] = loss
	out.op, out.a, out.c = opBCE, logit, y
	return out
}

// ExpM1 maps a log1p-space prediction back to the raw cost scale,
// clamping at zero.
func ExpM1(z float64) float64 {
	v := math.Expm1(z)
	if v < 0 {
		return 0
	}
	return v
}

// SigmoidScalar exposes the stable sigmoid for inference-time probability
// computation on classifier logits.
func SigmoidScalar(x float64) float64 { return sigmoid(x) }
