package core

import (
	"time"

	"repro/internal/sketch"
)

// postingSource is where a session's scan gets posting lists from. A
// sealed mapper has exactly one, fixed when it was sealed: the sealed
// sharded table or a remote shard fleet.
type postingSource interface {
	// numShards returns the shard count P probes are routed over with
	// sketch.ShardOf.
	numShards() int
	// fetch resolves the probes of every touched shard sd: for each
	// trial t in s.shards[sd].trials it stores the posting list of
	// ⟨t, words[t]⟩ in s.plists[t] (nil for an absent word), and it sets
	// the slot's dur when s.timeShards is on. A source that can lose a
	// shard (the remote one) also sets the slot's err — nil, or the
	// error that lost the whole shard for this query. Lists go into
	// the session-owned scratch; fetch allocates nothing per query.
	fetch(s *Session, words []sketch.Word, touched []int32)
}

// localSource serves from the sealed sharded table. Every shard was
// verified at open, so a local fetch never loses one.
type localSource struct{ sf *sketch.ShardedFrozen }

func (ls localSource) numShards() int { return ls.sf.NumShards() }

//jem:hotpath
func (ls localSource) fetch(s *Session, words []sketch.Word, touched []int32) {
	// When shard timing is on, one clock read per shard boundary
	// attributes the lookups to the shard that just finished.
	var prev time.Time
	if s.timeShards {
		prev = time.Now()
	}
	for _, sd := range touched {
		sh := &s.shards[sd]
		ft := ls.sf.Shard(int(sd))
		for _, t := range sh.trials {
			s.plists[t] = ft.Lookup(int(t), words[t])
		}
		if s.timeShards {
			now := time.Now()
			sh.dur = now.Sub(prev)
			prev = now
		}
	}
}
