package gene

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestRowSizes pins the in-memory gene rows at 24 bytes each: a
// RAM-game generation holds over a hundred thousand of them.
func TestRowSizes(t *testing.T) {
	if n, c := unsafe.Sizeof(Node{}), unsafe.Sizeof(Conn{}); n != 24 || c != 24 {
		t.Fatalf("Node is %d bytes and Conn %d, want 24 each", n, c)
	}
}

func TestNodePackRoundTrip(t *testing.T) {
	n := NewNode(42, Hidden)
	n.Bias = 1.25
	n.Response = -0.5
	n.Activation = ActReLU
	n.Aggregation = AggMax
	got := n.Pack().Node()
	if got.NodeID != 42 || got.Type != Hidden {
		t.Fatalf("identity fields mangled: %+v", got)
	}
	if got.Activation != ActReLU || got.Aggregation != AggMax {
		t.Fatalf("function selects mangled: %+v", got)
	}
	if math.Abs(got.Bias-1.25) > 0.01 || math.Abs(got.Response+0.5) > 0.01 {
		t.Fatalf("attributes off: bias=%v resp=%v", got.Bias, got.Response)
	}
}

func TestConnPackRoundTrip(t *testing.T) {
	c := NewConn(3, 7, -2.375)
	got := c.Pack().Conn()
	if got.Src != 3 || got.Dst != 7 || !got.Enabled {
		t.Fatalf("identity fields mangled: %+v", got)
	}
	if math.Abs(got.Weight+2.375) > 0.001 {
		t.Fatalf("weight off: %v", got.Weight)
	}
	c.Enabled = false
	if c.Pack().Conn().Enabled {
		t.Fatal("disabled flag lost")
	}
}

func TestWordKind(t *testing.T) {
	if NewNode(1, Input).Pack().Kind() != KindNode {
		t.Fatal("node word misclassified")
	}
	if NewConn(1, 2, 0).Pack().Kind() != KindConn {
		t.Fatal("conn word misclassified")
	}
}

func TestQuantizeClamping(t *testing.T) {
	for _, v := range []float64{100, -100, AttrLimit, -AttrLimit} {
		q := Quantize(v)
		if q >= AttrLimit || q < -AttrLimit {
			t.Fatalf("Quantize(%v) = %v escaped [-8,8)", v, q)
		}
	}
}

func TestClampAttr(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{100, AttrLimit - 1.0/(1<<12)},
		{AttrLimit, AttrLimit - 1.0/(1<<12)},
		{AttrLimit - 1e-9, AttrLimit - 1e-9},
		{1.5, 1.5},
		{-AttrLimit, -AttrLimit},
		{-100, -AttrLimit},
	} {
		if got := ClampAttr(c.in); got != c.want {
			t.Fatalf("ClampAttr(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	for _, v := range []float64{0, 0.1, -3.7, 7.99, -8} {
		q := Quantize(v)
		if Quantize(q) != q {
			t.Fatalf("Quantize not idempotent at %v: %v vs %v", v, q, Quantize(q))
		}
	}
}

// Property: node gene attributes survive packing within quantization
// error (Q4.8 step = 1/256).
func TestQuickNodeRoundTrip(t *testing.T) {
	f := func(id uint16, bias, resp float64, act, agg uint8) bool {
		bias = math.Mod(bias, AttrLimit)
		resp = math.Mod(resp, AttrLimit)
		if math.IsNaN(bias) || math.IsNaN(resp) {
			return true
		}
		n := NewNode(int32(id), Hidden)
		n.Bias = bias
		n.Response = resp
		n.Activation = Activation(act % uint8(NumActivations))
		n.Aggregation = Aggregation(agg % uint8(NumAggregations))
		got := n.Pack().Node()
		const step12 = 2 * AttrLimit / (1 << 12)
		return got.NodeID == n.NodeID &&
			got.Activation == n.Activation &&
			got.Aggregation == n.Aggregation &&
			math.Abs(got.Bias-bias) <= step12 &&
			math.Abs(got.Response-resp) <= step12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: connection genes round-trip with weight error below the
// Q4.12 step and exact ids/flags.
func TestQuickConnRoundTrip(t *testing.T) {
	f := func(src, dst uint16, w float64, en bool) bool {
		w = math.Mod(w, AttrLimit)
		if math.IsNaN(w) {
			return true
		}
		c := NewConn(int32(src), int32(dst), w)
		c.Enabled = en
		got := c.Pack().Conn()
		const step16 = 2 * AttrLimit / (1 << 16)
		return got.Src == c.Src && got.Dst == c.Dst && got.Enabled == en &&
			math.Abs(got.Weight-w) <= step16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
