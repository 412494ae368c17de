package scaffold

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func res(read int32, kind core.SegmentKind, subject int32) core.Result {
	return core.Result{ReadIndex: read, Kind: kind, Subject: subject}
}

func TestBuildLinksCountsSupport(t *testing.T) {
	results := []core.Result{
		// Reads 0 and 1 bridge contigs 2-5 (one in each direction).
		res(0, core.Prefix, 2), res(0, core.Suffix, 5),
		res(1, core.Prefix, 5), res(1, core.Suffix, 2),
		// Read 2 bridges 5-7.
		res(2, core.Prefix, 5), res(2, core.Suffix, 7),
		// Read 3: both ends on the same contig — no link.
		res(3, core.Prefix, 1), res(3, core.Suffix, 1),
		// Read 4: one end unmapped — no link.
		res(4, core.Prefix, 3), res(4, core.Suffix, -1),
	}
	links := BuildLinks(results)
	if len(links) != 2 {
		t.Fatalf("got %d links: %v", len(links), links)
	}
	if links[0] != (Link{A: 2, B: 5, Support: 2}) {
		t.Errorf("links[0] = %+v", links[0])
	}
	if links[1] != (Link{A: 5, B: 7, Support: 1}) {
		t.Errorf("links[1] = %+v", links[1])
	}
}

func TestBuildLinksEmpty(t *testing.T) {
	if got := BuildLinks(nil); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestBuildChainsSimplePath(t *testing.T) {
	links := []Link{
		{A: 0, B: 1, Support: 5},
		{A: 1, B: 2, Support: 4},
		{A: 2, B: 3, Support: 3},
	}
	sc := Build(links, 6, 1)
	if sc.AcceptedLinks != 3 {
		t.Errorf("accepted %d links", sc.AcceptedLinks)
	}
	if len(sc.Chains) != 1 {
		t.Fatalf("chains = %v", sc.Chains)
	}
	chain := sc.Chains[0]
	want := []int32{0, 1, 2, 3}
	rev := []int32{3, 2, 1, 0}
	if !reflect.DeepEqual(chain, want) && !reflect.DeepEqual(chain, rev) {
		t.Errorf("chain = %v", chain)
	}
	if len(sc.Singletons) != 2 {
		t.Errorf("singletons = %v", sc.Singletons)
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	links := []Link{
		{A: 0, B: 1, Support: 5},
		{A: 1, B: 2, Support: 5},
		{A: 0, B: 2, Support: 5}, // would close a triangle
	}
	sc := Build(links, 3, 1)
	if sc.AcceptedLinks != 2 {
		t.Errorf("accepted %d links (cycle not rejected)", sc.AcceptedLinks)
	}
	if len(sc.Chains) != 1 || len(sc.Chains[0]) != 3 {
		t.Errorf("chains = %v", sc.Chains)
	}
}

func TestBuildDegreeCap(t *testing.T) {
	// A star: contig 0 linked to 1,2,3. Only two links can attach to
	// 0; the third must be dropped.
	links := []Link{
		{A: 0, B: 1, Support: 9},
		{A: 0, B: 2, Support: 8},
		{A: 0, B: 3, Support: 7},
	}
	sc := Build(links, 4, 1)
	if sc.AcceptedLinks != 2 {
		t.Errorf("accepted %d links", sc.AcceptedLinks)
	}
	if len(sc.Chains) != 1 || len(sc.Chains[0]) != 3 {
		t.Errorf("chains = %v", sc.Chains)
	}
	// Contig 3 (lowest support) is the singleton.
	if !reflect.DeepEqual(sc.Singletons, []int32{3}) {
		t.Errorf("singletons = %v", sc.Singletons)
	}
}

func TestBuildMinSupport(t *testing.T) {
	links := []Link{
		{A: 0, B: 1, Support: 5},
		{A: 1, B: 2, Support: 1}, // below threshold
	}
	sc := Build(links, 3, 2)
	if sc.AcceptedLinks != 1 {
		t.Errorf("accepted %d links", sc.AcceptedLinks)
	}
	if len(sc.Chains) != 1 || len(sc.Chains[0]) != 2 {
		t.Errorf("chains = %v", sc.Chains)
	}
}

func TestBuildPrefersHighSupport(t *testing.T) {
	// 1 can only take two neighbors; the two strongest links win.
	links := []Link{
		{A: 1, B: 2, Support: 10},
		{A: 1, B: 3, Support: 9},
		{A: 1, B: 4, Support: 1},
	}
	sc := Build(BuildLinksOrder(links), 5, 1)
	joined := map[int32]bool{}
	for _, ch := range sc.Chains {
		for _, c := range ch {
			joined[c] = true
		}
	}
	if joined[4] {
		t.Errorf("weakest link should have been dropped: %v", sc.Chains)
	}
}

// BuildLinksOrder re-sorts links the way BuildLinks would emit them.
func BuildLinksOrder(links []Link) []Link {
	out := append([]Link(nil), links...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Support > out[j-1].Support; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	sc := Build(nil, 3, 1)
	if len(sc.Chains) != 0 || len(sc.Singletons) != 3 {
		t.Errorf("empty build: %+v", sc)
	}
}
