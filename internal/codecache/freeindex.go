package codecache

import "fmt"

// The free-run index answers first fit without walking the arena. It is a
// treap over the free nodes keyed by offset: nodes are in offset order
// in-order and heap-ordered on a pseudo-random priority, and each node's
// maxRun caches the largest free run in its subtree. Free runs never touch
// (freeNode merges them), so the index holds exactly the free nodes, and
// the lowest-offset run of at least s bytes it finds is the one a walk of
// the arena in address order would pick.
//
// The index is built on the first PlaceFirstFit or LargestFreeRun call and
// maintained from then on. The pseudo-circular sweep never asks for first
// fit, so arenas that only sweep (every paper, cluster and static serve
// replay) pay one untaken branch per placement and free instead of the
// upkeep.

// freeRoot returns the index's root (nil when nothing is free), building the
// index on first use.
func (a *Arena) freeRoot() *node {
	if !a.indexed {
		a.buildIndex()
	}
	return a.root
}

// buildIndex indexes every free node and turns on maintenance.
func (a *Arena) buildIndex() {
	a.indexed = true
	a.prio = 0x9e3779b9
	for n := a.head; n != nil; n = n.next {
		if n.frag == nil {
			a.idxInsert(n)
		}
	}
}

// nextPrio draws the next treap priority (xorshift32: deterministic, so the
// tree shape, like every output, is reproducible).
func (a *Arena) nextPrio() uint32 {
	x := a.prio
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	a.prio = x
	return x
}

// firstFit returns the lowest-offset free node of at least size bytes, or
// nil. Failure is O(1): the root's maximum covers the whole arena.
func (a *Arena) firstFit(size uint64) *node {
	x := a.freeRoot()
	if x == nil || x.maxRun < size {
		return nil
	}
	for {
		if l := x.left; l != nil && l.maxRun >= size {
			x = l
		} else if x.size >= size {
			return x
		} else {
			x = x.right
		}
	}
}

// subtreeMax recomputes x's maxRun from its own size and its children's.
func subtreeMax(x *node) uint64 {
	m := x.size
	if l := x.left; l != nil && l.maxRun > m {
		m = l.maxRun
	}
	if r := x.right; r != nil && r.maxRun > m {
		m = r.maxRun
	}
	return m
}

// fixUp restores the maxima on x's root path after x's size or children
// changed. It stops at the first ancestor whose maximum is unchanged: the
// ones above it depend on nothing else that moved.
func (a *Arena) fixUp(x *node) {
	for ; x != nil; x = x.up {
		m := subtreeMax(x)
		if m == x.maxRun {
			return
		}
		x.maxRun = m
	}
}

// setChild points parent p's link that held old at n instead (the root link
// when p is nil), and n's parent link at p.
func (a *Arena) setChild(p, old, n *node) {
	switch {
	case p == nil:
		a.root = n
	case p.left == old:
		p.left = n
	default:
		p.right = n
	}
	if n != nil {
		n.up = p
	}
}

// rotateUp lifts x above its parent, keeping offset order, and recomputes
// both nodes' maxima. The pair's subtree keeps the same members, so nothing
// above it changes.
func (a *Arena) rotateUp(x *node) {
	p := x.up
	a.setChild(p.up, p, x)
	if p.left == x {
		p.left = x.right
		if x.right != nil {
			x.right.up = p
		}
		x.right = p
	} else {
		p.right = x.left
		if x.left != nil {
			x.left.up = p
		}
		x.left = p
	}
	p.up = x
	p.maxRun = subtreeMax(p)
	x.maxRun = subtreeMax(x)
}

// idxInsert adds the free node n to the index.
func (a *Arena) idxInsert(n *node) {
	n.left, n.right = nil, nil
	n.prio = a.nextPrio()
	n.maxRun = n.size
	var p *node
	for x := a.root; x != nil; {
		if n.size > x.maxRun {
			x.maxRun = n.size
		}
		p = x
		if n.off < x.off {
			x = x.left
		} else {
			x = x.right
		}
	}
	n.up = p
	switch {
	case p == nil:
		a.root = n
	case n.off < p.off:
		p.left = n
	default:
		p.right = n
	}
	for n.up != nil && n.prio > n.up.prio {
		a.rotateUp(n)
	}
}

// idxDelete removes n from the index: rotate it down below its
// higher-priority child until it has at most one, then splice it out.
func (a *Arena) idxDelete(n *node) {
	for n.left != nil && n.right != nil {
		if n.left.prio > n.right.prio {
			a.rotateUp(n.left)
		} else {
			a.rotateUp(n.right)
		}
	}
	child := n.left
	if child == nil {
		child = n.right
	}
	p := n.up
	a.setChild(p, n, child)
	n.left, n.right, n.up = nil, nil, nil
	a.fixUp(p)
}

// idxReplace gives n old's place in the index. The caller guarantees that n
// sits between the same free neighbours as old, so offset order holds; it
// then fixes the maxima for n's size.
func (a *Arena) idxReplace(old, n *node) {
	n.left, n.right, n.prio, n.maxRun = old.left, old.right, old.prio, old.maxRun
	a.setChild(old.up, old, n)
	if n.left != nil {
		n.left.up = n
	}
	if n.right != nil {
		n.right.up = n
	}
	old.left, old.right, old.up = nil, nil, nil
}

// checkIndex validates the built index: it holds exactly the free nodes, in
// offset order, with consistent parent links, heap-ordered priorities and
// correct maxima.
func (a *Arena) checkIndex() error {
	var free []*node
	for n := a.head; n != nil; n = n.next {
		if n.frag == nil {
			free = append(free, n)
		}
	}
	i := 0
	var walk func(x, up *node) error
	walk = func(x, up *node) error {
		if x == nil {
			return nil
		}
		if x.up != up {
			return fmt.Errorf("codecache: index node at %d has a bad parent link", x.off)
		}
		if up != nil && x.prio > up.prio {
			return fmt.Errorf("codecache: index node at %d outranks its parent", x.off)
		}
		if err := walk(x.left, x); err != nil {
			return err
		}
		if i >= len(free) || free[i] != x {
			return fmt.Errorf("codecache: index node at %d out of order or not a free run", x.off)
		}
		i++
		if err := walk(x.right, x); err != nil {
			return err
		}
		if m := subtreeMax(x); m != x.maxRun {
			return fmt.Errorf("codecache: index node at %d caches max %d, subtree max is %d", x.off, x.maxRun, m)
		}
		return nil
	}
	if err := walk(a.root, nil); err != nil {
		return err
	}
	if i != len(free) {
		return fmt.Errorf("codecache: index holds %d free runs, arena has %d", i, len(free))
	}
	return nil
}
