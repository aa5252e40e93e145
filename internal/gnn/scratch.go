package gnn

import "costream/internal/nn"

// Scratch holds the reusable per-worker buffers of a directed forward
// pass: the per-node hidden-state slices of the three phases, the
// per-host child lists of phase 1 and the child buffer of phase 3. One
// Scratch serves one goroutine; training workers keep one alongside their
// tape so the steady-state forward pass allocates nothing.
type Scratch struct {
	hidden, next, after2, final []*nn.Node
	kids                        []*nn.Node   // phase-3 child buffer
	one                         [1]*nn.Node  // phase-2 single-child buffer
	hostOrder                   []int        // host indices in first-seen order, then sorted
	hostKids                    [][]*nn.Node // per node index: phase-1 child lists
}

// NewScratch returns an empty scratch; its buffers grow on first use and
// are reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// grow ensures every per-node buffer covers n nodes and resets the
// per-call state.
func (s *Scratch) grow(n int) {
	if cap(s.hidden) < n {
		s.hidden = make([]*nn.Node, n)
		s.next = make([]*nn.Node, n)
		s.after2 = make([]*nn.Node, n)
		s.final = make([]*nn.Node, n)
		s.hostKids = make([][]*nn.Node, n)
	}
	s.hostOrder = s.hostOrder[:0]
	s.kids = s.kids[:0]
}
