package sketch

import (
	"testing"

	"repro/internal/kmer"
)

// TestShardOfGolden pins ShardOf's exact outputs. The routing is a
// distributed placement contract, not an implementation detail: a
// coordinator and a jem-shardd fleet built from the same index must
// agree on which server owns every ⟨trial, word⟩ key, and every
// index ever written bakes the placement into its shard
// payloads. Changing the hash silently would make old indexes and
// running fleets route probes to shards that do not own them — this
// test makes such a change loud. If you MUST change the routing, bump
// the index format magic so old layouts are not misread.
func TestShardOfGolden(t *testing.T) {
	trials := []int{0, 1, 7, 29}
	words := []kmer.Word{0, 1, 0xdeadbeef, 0x123456789abcdef0 & ((1 << 62) - 1), 42}
	golden := []struct {
		shards int
		want   []int
	}{
		{2, []int{1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1}},
		{4, []int{3, 0, 1, 3, 1, 0, 3, 2, 3, 0, 0, 1, 1, 1, 3, 2, 2, 1, 2, 1}},
		{8, []int{7, 0, 1, 3, 5, 4, 7, 6, 7, 0, 4, 5, 5, 5, 3, 2, 2, 1, 6, 5}},
		{64, []int{47, 32, 1, 59, 21, 52, 39, 22, 55, 48, 60, 53, 13, 45, 3, 50, 10, 49, 38, 45}},
		{1024, []int{431, 32, 129, 443, 661, 500, 103, 598, 695, 432, 828, 373, 973, 365, 451, 114, 906, 625, 486, 45}},
	}
	for _, g := range golden {
		i := 0
		for _, tr := range trials {
			for _, w := range words {
				if got := ShardOf(tr, w, g.shards); got != g.want[i] {
					t.Errorf("ShardOf(%d, %#x, %d) = %d, want %d (routing contract broken — see test comment)",
						tr, uint64(w), g.shards, got, g.want[i])
				}
				i++
			}
		}
	}
	// Degenerate shard counts route everything to shard 0.
	for _, p := range []int{0, 1, -3} {
		if got := ShardOf(5, 12345, p); got != 0 {
			t.Errorf("ShardOf(5, 12345, %d) = %d, want 0", p, got)
		}
	}
}
