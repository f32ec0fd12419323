// Package gene implements the 64-bit gene encoding used by the GeneSys
// hardware (Fig. 6 of the paper).
//
// NEAT builds genomes from two gene kinds: node genes (vertices of the
// neural-network graph) and connection genes (edges). The paper packs
// both into a single 64-bit word so that one gene streams through an EvE
// processing element per cycle. Node genes carry four attributes —
// bias, response, activation and aggregation — plus a 2-bit node type
// (hidden / input / output). Connection genes carry source and
// destination node ids, a weight, and an enabled flag.
//
// This package defines the in-memory Node and Conn rows the algorithm
// manipulates, the exact bit-level packing the hardware models stream,
// and the quantization used to fit real-valued attributes into the word.
// A gene has three sizes: 24 bytes as a Node or Conn in memory, where
// its attributes are full-precision float64s; 8 bytes as the packed
// hardware Word, at quantized precision; and 23 (node) or 17
// (connection) bytes in the binary genome record, at full precision.
package gene

import "fmt"

// Kind is the kind bit of a packed gene word (Word.Kind): the one
// place a gene's kind is data rather than its Go type.
type Kind uint8

const (
	// KindNode marks a gene describing a network vertex (neuron).
	KindNode Kind = iota
	// KindConn marks a gene describing a network edge (synapse).
	KindConn
)

// String returns "node" or "conn".
func (k Kind) String() string {
	if k == KindNode {
		return "node"
	}
	return "conn"
}

// NodeType is the 2-bit role field of a node gene (Fig. 6: 00 hidden,
// 01 input, 10 output).
type NodeType uint8

const (
	// Hidden is an evolved interior neuron.
	Hidden NodeType = 0
	// Input is a sensor node fed from the environment observation.
	Input NodeType = 1
	// Output is an actuator node read out as the action.
	Output NodeType = 2
)

// nodeTypeNames holds each node type's name, by type.
var nodeTypeNames = [...]string{Hidden: "hidden", Input: "input", Output: "output"}

// String names the node type.
func (t NodeType) String() string {
	if int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("NodeType(%d)", uint8(t))
}

// Activation enumerates the activation functions a node gene can select.
// The 4-bit field allows 16; we implement the set neat-python ships that
// the paper's characterization used.
type Activation uint8

// Activation function ids. ActSigmoid is NEAT's default.
const (
	ActSigmoid Activation = iota
	ActTanh
	ActReLU
	ActIdentity
	ActSin
	ActGauss
	ActAbs
	ActClamped
	numActivations
)

// NumActivations is the count of defined activation functions.
const NumActivations = int(numActivations)

// activationNames holds each activation function's name, by id.
var activationNames = [NumActivations]string{"sigmoid", "tanh", "relu", "identity", "sin", "gauss", "abs", "clamped"}

// String names the activation function.
func (a Activation) String() string {
	if int(a) < len(activationNames) {
		return activationNames[a]
	}
	return fmt.Sprintf("Activation(%d)", uint8(a))
}

// Aggregation enumerates how a node combines its weighted inputs.
type Aggregation uint8

// Aggregation function ids. AggSum is NEAT's default.
const (
	AggSum Aggregation = iota
	AggProduct
	AggMax
	AggMin
	AggMean
	numAggregations
)

// NumAggregations is the count of defined aggregation functions.
const NumAggregations = int(numAggregations)

// aggregationNames holds each aggregation function's name, by id.
var aggregationNames = [NumAggregations]string{"sum", "product", "max", "min", "mean"}

// String names the aggregation function.
func (a Aggregation) String() string {
	if int(a) < len(aggregationNames) {
		return aggregationNames[a]
	}
	return fmt.Sprintf("Aggregation(%d)", uint8(a))
}

// Node is a node gene: one vertex of the network graph, keyed by
// NodeID. The float attributes are full precision in memory; Pack
// quantizes them into the 64-bit hardware word (Word), matching what
// the chip stores in the genome buffer SRAM. The floats come first, so
// the row is 24 bytes.
type Node struct {
	Bias        float64
	Response    float64
	NodeID      int32
	Type        NodeType
	Activation  Activation
	Aggregation Aggregation
}

// Conn is a connection gene: one edge of the network graph, keyed by
// (Src, Dst). Like Node, it is a 24-byte row at full precision.
type Conn struct {
	Weight  float64
	Src     int32
	Dst     int32
	Enabled bool
}

// NewNode returns a node gene with NEAT defaults (bias 0, response 1,
// sigmoid activation, sum aggregation).
func NewNode(id int32, t NodeType) Node {
	return Node{NodeID: id, Type: t, Response: 1, Activation: ActSigmoid, Aggregation: AggSum}
}

// NewConn returns an enabled connection gene from src to dst with the
// given weight.
func NewConn(src, dst int32, weight float64) Conn {
	return Conn{Src: src, Dst: dst, Weight: weight, Enabled: true}
}

// String renders the node gene in a compact human-readable form.
func (n Node) String() string {
	return fmt.Sprintf("node(%d %s bias=%.3f resp=%.3f %s/%s)",
		n.NodeID, n.Type, n.Bias, n.Response, n.Activation, n.Aggregation)
}

// String renders the connection gene in a compact human-readable form.
func (c Conn) String() string {
	en := "on"
	if !c.Enabled {
		en = "off"
	}
	return fmt.Sprintf("conn(%d->%d w=%.3f %s)", c.Src, c.Dst, c.Weight, en)
}
