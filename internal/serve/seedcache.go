package serve

import (
	"graphite/internal/core"
	ival "graphite/internal/interval"
)

// seedCache retains the terminal vertex states of executed seedable runs
// (algorithms.SupportsIncremental) so a later request that extends the same
// window starts from them instead of from superstep zero
// (core.Options.SeedStates). The key is everything that must match verbatim
// for a seed to be usable — graph name, algorithm, canonical parameters,
// window start; the window end and the graph's effective epoch ride in the
// entry and are checked at use time, because an extension needs end < newEnd
// and an unchanged graph below end.
type seedCache struct{ *lru[seedKey, *seedEntry] }

type seedKey struct {
	graph  string
	algo   string
	params string // canonical "k=v,..." form (paramsKey)
	start  ival.Time
}

// seedEntry is one retained run: terminal states over the window
// [key.start, end), computed under effective epoch eff (0 for static
// graphs, whose version never changes). It holds the states detached from
// the run's graph — nil for the vertices the window dropped — so a retained
// entry does not pin a live epoch's graph.
type seedEntry struct {
	key  seedKey
	end  ival.Time
	eff  uint64
	seed *core.Seed
}

func newSeedCache(max int) *seedCache {
	return &seedCache{newLRU[seedKey, *seedEntry](max)}
}

// lookup returns the retained run for the key if it is a strict prefix of a
// window ending at end — the extension relation seeding requires.
func (c *seedCache) lookup(key seedKey, end ival.Time) (*seedEntry, bool) {
	return c.get(key, func(e *seedEntry) bool { return e.end < end })
}

// put retains a run's terminal states. An existing entry for the key is
// replaced when the new window reaches at least as far (a longer prefix
// seeds more future extensions) or when the graph version moved (the old
// entry would fail its validity check anyway).
func (c *seedCache) put(e *seedEntry) {
	c.lru.put(e.key, e, func(old *seedEntry) bool { return e.end >= old.end || e.eff != old.eff })
}
