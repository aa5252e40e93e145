// Package gnn implements COSTREAM's joint operator-resource graph
// representation and the GNN with the paper's novel directed message
// passing scheme (Section III, Algorithm 1): typed encoders embed
// transferable features into hidden states, messages flow
// operators->hardware, hardware->operators and sources->...->sink, and a
// readout MLP maps the summed states to a scalar cost prediction.
//
// A traditional message passing variant (simultaneous neighbor updates,
// ignoring node types and edge direction) is included for the Exp 7b
// ablation.
package gnn

import (
	"fmt"
	"slices"
)

// NodeKind is the type of a graph node; each kind has its own encoder and
// update MLPs.
type NodeKind int

// Node kinds of the joint operator-resource graph.
const (
	KindSource NodeKind = iota
	KindFilter
	KindJoin
	KindAggregate
	KindSink
	KindHost
	numKinds
)

var kindNames = [...]string{"source", "filter", "join", "aggregate", "sink", "host"}

func (k NodeKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
	return kindNames[k]
}

// MarshalText encodes the kind by name.
func (k NodeKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name.
func (k *NodeKind) UnmarshalText(name []byte) error {
	i := slices.Index(kindNames[:], string(name))
	if i < 0 {
		return fmt.Errorf("gnn: unknown node kind %q", name)
	}
	*k = NodeKind(i)
	return nil
}

// AllKinds lists every node kind.
func AllKinds() []NodeKind {
	return []NodeKind{KindSource, KindFilter, KindJoin, KindAggregate, KindSink, KindHost}
}

// Node is a vertex of the joint graph: a streaming operator, a data
// source/sink, or a hardware host, with its transferable feature vector.
type Node struct {
	Kind NodeKind
	Feat []float64
}

// Graph is the joint operator-resource representation: operator nodes wired
// by logical data-flow edges, host nodes wired to operators by placement
// edges.
type Graph struct {
	Nodes []Node
	// FlowEdges are directed logical data-flow edges between operator
	// node indices (upstream -> downstream).
	FlowEdges [][2]int
	// PlaceEdges map operator node index -> host node index.
	PlaceEdges [][2]int
}

// Validate checks index ranges and that placement edges connect operators
// to hosts.
func (g *Graph) Validate() error {
	n := len(g.Nodes)
	if n == 0 {
		return fmt.Errorf("gnn: empty graph")
	}
	for _, e := range g.FlowEdges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("gnn: flow edge %v out of range", e)
		}
		if g.Nodes[e[0]].Kind == KindHost || g.Nodes[e[1]].Kind == KindHost {
			return fmt.Errorf("gnn: flow edge %v touches a host node", e)
		}
	}
	for _, e := range g.PlaceEdges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("gnn: placement edge %v out of range", e)
		}
		if g.Nodes[e[0]].Kind == KindHost {
			return fmt.Errorf("gnn: placement edge %v starts at a host", e)
		}
		if g.Nodes[e[1]].Kind != KindHost {
			return fmt.Errorf("gnn: placement edge %v does not end at a host", e)
		}
	}
	return nil
}
