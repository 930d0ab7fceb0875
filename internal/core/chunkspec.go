// Package core implements the paper's contribution: LP-based fragment
// allocation by recursive workload decomposition (Halfpap & Schlosser, ICDE
// 2019), extended to multiple workload scenarios for robustness and to
// partial clustering of low-load queries for short runtimes (Schlosser &
// Halfpap, EDBT 2021, Sections 3.1 and 3.2).
//
// The entry point is Allocate, which solves the mixed-integer model (3)–(7)
// of the paper — optionally split into recursive chunk subproblems and
// optionally with the partial-clustering constraints (9) — using the
// branch-and-bound solver of package mip on top of the simplex solver of
// package simplex.
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ChunkSpec describes how the K final nodes are grouped into recursive
// decomposition chunks (Section 2.2.3 of the paper).
//
// A leaf spec (no children) with Leaves = n stands for a group of n final
// nodes that is solved exactly in one LP with B = n subnodes. An inner spec
// splits its leaves among its children: the LP at that level has one
// subnode per child, weighted by the child's leaf count, and each child is
// then solved recursively on its subnode's fragments, queries, and shares.
//
// The paper's notation maps as follows: "6" (marked *) is Flat(6), the
// optimal single solve; "3+3" is Split(Flat(3), Flat(3)); "2+2+1" is
// Split(Flat(2), Flat(2), Flat(1)).
type ChunkSpec struct {
	// Leaves is the number of final nodes covered by this spec. For an
	// inner spec it equals the sum over the children.
	Leaves int
	// Children, if non-empty, makes this an inner split node.
	Children []*ChunkSpec
}

// Flat returns a leaf group of n final nodes solved exactly (B = n).
func Flat(n int) *ChunkSpec { return &ChunkSpec{Leaves: n} }

// Split returns an inner spec dividing its leaves among the children.
func Split(children ...*ChunkSpec) *ChunkSpec {
	s := &ChunkSpec{Children: append([]*ChunkSpec(nil), children...)}
	for _, c := range children {
		s.Leaves += c.Leaves
	}
	return s
}

// Groups counts the exact-solve groups (leaf specs) of the decomposition —
// the number of independent subproblem chains the parallel driver can
// ultimately fan out to.
func (s *ChunkSpec) Groups() int {
	if len(s.Children) == 0 {
		return 1
	}
	n := 0
	for _, c := range s.Children {
		n += c.Groups()
	}
	return n
}

// Validate checks leaf counts are positive and consistent, and that no
// split's node total overflows an int.
func (s *ChunkSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("core: nil chunk spec")
	}
	if len(s.Children) == 0 {
		if s.Leaves <= 0 {
			return fmt.Errorf("core: chunk group must have positive leaves, got %d", s.Leaves)
		}
		return nil
	}
	sum := 0
	for _, c := range s.Children {
		if err := c.Validate(); err != nil {
			return err
		}
		if sum > math.MaxInt-c.Leaves {
			return fmt.Errorf("core: chunk spec %q covers more than %d nodes", s.String(), math.MaxInt)
		}
		sum += c.Leaves
	}
	if sum != s.Leaves {
		return fmt.Errorf("core: chunk spec leaves %d != children sum %d", s.Leaves, sum)
	}
	return nil
}

// String renders the spec in the paper's "a+b+c" notation, parenthesizing
// nested splits.
func (s *ChunkSpec) String() string {
	if len(s.Children) == 0 {
		return strconv.Itoa(s.Leaves)
	}
	parts := make([]string, len(s.Children))
	for i, c := range s.Children {
		parts[i] = c.String()
		if len(c.Children) > 0 {
			parts[i] = "(" + parts[i] + ")"
		}
	}
	return strings.Join(parts, "+")
}

// ParseChunks parses the paper's chunk notation: "6" (single exact solve),
// "4+4", "2+2+1", and nested forms such as "(2+2)+(2+2)". Whitespace is
// ignored.
func ParseChunks(s string) (*ChunkSpec, error) {
	p := &chunkParser{in: strings.ReplaceAll(s, " ", "")}
	spec, err := p.parseSplit()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("core: trailing input %q in chunk spec %q", p.in[p.pos:], s)
	}
	// A top-level "a+b" is a split; a bare "n" is a flat group.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

type chunkParser struct {
	in  string
	pos int
}

func (p *chunkParser) parseSplit() (*ChunkSpec, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	children := []*ChunkSpec{first}
	for p.pos < len(p.in) && p.in[p.pos] == '+' {
		p.pos++
		next, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		children = append(children, next)
	}
	if len(children) == 1 {
		return first, nil
	}
	return Split(children...), nil
}

func (p *chunkParser) parseTerm() (*ChunkSpec, error) {
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("core: unexpected end of chunk spec %q", p.in)
	}
	if p.in[p.pos] == '(' {
		p.pos++
		inner, err := p.parseSplit()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, fmt.Errorf("core: missing ')' in chunk spec %q", p.in)
		}
		p.pos++
		return inner, nil
	}
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return nil, fmt.Errorf("core: expected number at position %d of chunk spec %q", start, p.in)
	}
	n, err := strconv.Atoi(p.in[start:p.pos])
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("core: invalid group size %q in chunk spec", p.in[start:p.pos])
	}
	return Flat(n), nil
}
