// Package scaffold implements the downstream hybrid-scaffolding step
// that motivates the paper's mapping problem: long reads whose two end
// segments map to *different* contigs witness that those contigs are
// nearby on the genome, and chaining such links extends draft
// assemblies into scaffolds (paper §I and future work ii).
//
// The scaffolder is deliberately simple and deterministic: links are
// accumulated with support counts, filtered by a support threshold,
// and greedily accepted highest-support-first subject to each contig
// joining at most two neighbors and no cycles — yielding a path
// forest whose components are the scaffolds.
package scaffold

import (
	"sort"

	"repro/internal/core"
)

// Link is an undirected contig adjacency witnessed by long reads.
type Link struct {
	A, B    int32 // contig ids with A < B
	Support int   // number of witnessing reads
}

// BuildLinks pairs up the per-read prefix/suffix results and counts
// cross-contig links. Results may be in any order; segments of the
// same read are matched by ReadIndex.
func BuildLinks(results []core.Result) []Link {
	type ends struct {
		prefix, suffix int32
		hasP, hasS     bool
	}
	perRead := make(map[int32]*ends)
	for _, r := range results {
		if !r.Mapped() {
			continue
		}
		e := perRead[r.ReadIndex]
		if e == nil {
			e = &ends{}
			perRead[r.ReadIndex] = e
		}
		if r.Kind == core.Prefix {
			e.prefix, e.hasP = r.Subject, true
		} else {
			e.suffix, e.hasS = r.Subject, true
		}
	}
	counts := make(map[[2]int32]int)
	for _, e := range perRead {
		if !e.hasP || !e.hasS || e.prefix == e.suffix {
			continue
		}
		a, b := e.prefix, e.suffix
		if a > b {
			a, b = b, a
		}
		counts[[2]int32{a, b}]++
	}
	links := make([]Link, 0, len(counts))
	for k, c := range counts {
		links = append(links, Link{A: k[0], B: k[1], Support: c})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Support != links[j].Support {
			return links[i].Support > links[j].Support
		}
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	return links
}

// Scaffolds groups contigs into ordered chains.
type Scaffolds struct {
	// Chains lists each multi-contig scaffold as an ordered contig
	// path.
	Chains [][]int32
	// Singletons are contigs that joined no chain.
	Singletons []int32
	// AcceptedLinks is the number of links used.
	AcceptedLinks int
}

// Build runs the greedy path-forest construction over links among
// nContigs contigs, ignoring links with support below minSupport.
func Build(links []Link, nContigs int, minSupport int) *Scaffolds {
	if minSupport < 1 {
		minSupport = 1
	}
	parent := make([]int32, nContigs)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	degree := make([]int8, nContigs)
	adj := make(map[int32][]int32, nContigs)
	accepted := 0
	for _, l := range links {
		if l.Support < minSupport {
			continue
		}
		if degree[l.A] >= 2 || degree[l.B] >= 2 {
			continue
		}
		ra, rb := find(l.A), find(l.B)
		if ra == rb {
			continue // would close a cycle
		}
		parent[ra] = rb
		degree[l.A]++
		degree[l.B]++
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
		accepted++
	}

	out := &Scaffolds{AcceptedLinks: accepted}
	visited := make([]bool, nContigs)
	// Walk each path from an endpoint (degree ≤ 1).
	for c := int32(0); int(c) < nContigs; c++ {
		if visited[c] || degree[c] > 1 {
			continue
		}
		if degree[c] == 0 {
			visited[c] = true
			out.Singletons = append(out.Singletons, c)
			continue
		}
		chain := []int32{c}
		visited[c] = true
		prev, cur := c, adj[c][0]
		for {
			chain = append(chain, cur)
			visited[cur] = true
			var next int32 = -1
			for _, n := range adj[cur] {
				if n != prev {
					next = n
					break
				}
			}
			if next < 0 {
				break
			}
			prev, cur = cur, next
		}
		out.Chains = append(out.Chains, chain)
	}
	return out
}
