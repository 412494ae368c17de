package jem

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shardnet"
)

// OpenOptions configures Open, the unified construction entry point:
// it builds from contigs (NewMapper), loads an index file written by
// SaveIndexFile, or does the one and falls back to the other on
// corruption (the load-or-rebuild policy CLI callers used to
// hand-roll).
type OpenOptions struct {
	// Contigs is the subject set: the build source when no index is
	// loaded, the rebuild source for the corrupt-index fallback, and
	// otherwise the record metadata backing sequence-dependent extras
	// on a loaded index (nil disables only those extras).
	Contigs []Record
	// IndexPath, when non-empty, loads the mapper from this index file
	// instead of sketching Contigs.
	IndexPath string
	// RebuildOnCorrupt falls back to building from Contigs when the
	// file at IndexPath fails its checksum verification
	// (ErrIndexChecksum) — on-disk corruption of a once-valid index.
	// Other load errors (missing file, unknown format) are returned
	// as-is, and the fallback requires Contigs.
	RebuildOnCorrupt bool
	// ShardServers, when non-empty, serves queries from a fleet of
	// shard-server processes (jem-shardd) at these addresses
	// ("host:port" for TCP, "unix:/path" for unix sockets) instead of
	// loading shard payloads locally. Requires IndexPath: only the
	// index manifest is read here (sketch parameters, subject
	// metadata, fleet fingerprint); the postings live in the servers.
	// The fleet must collectively own every shard of that exact index
	// — a fingerprint or coverage mismatch fails Open. See
	// docs/DISTRIBUTED.md. Mutually exclusive with RebuildOnCorrupt
	// (there is no local table to rebuild into).
	ShardServers []string
	// Options configures the build and rebuild paths and supplies the
	// serving knobs. A loaded index carries its own sketch parameters,
	// which override the corresponding fields; Workers and Metrics
	// apply either way.
	Options Options
}

// OpenInfo reports which construction path Open took.
type OpenInfo struct {
	// FromIndex is true when the mapper was loaded from IndexPath.
	FromIndex bool
	// Rebuilt is true when the index at IndexPath was corrupt and the
	// mapper was rebuilt from Contigs instead (RebuildOnCorrupt).
	Rebuilt bool
	// Remote is true when the mapper serves through a shard-server
	// fleet (ShardServers) rather than local tables.
	Remote bool
	// IndexErr is the load error that triggered the rebuild, nil unless
	// Rebuilt. Callers typically surface it as a warning: the corrupt
	// file still exists and should not be served or trusted.
	IndexErr error
	// Memory reports what the open did with memory: the per-shard
	// residency and the open-time resident/mapped byte split (see
	// Options.Memory). Builds and rebuilds report MemoryHeap; a remote
	// mapper reports no local shards.
	Memory MemoryInfo
}

// Open constructs a Mapper by whichever path the options select:
//
//   - IndexPath == "": build from Contigs (NewMapper).
//   - IndexPath set: load the index file SaveIndexFile wrote, traced
//     as index.load → read → shard0…shardN-1; Contigs, if given,
//     supply record metadata the index does not store.
//   - IndexPath set + RebuildOnCorrupt: as above, but a checksum
//     failure falls back to building from Contigs, reported in
//     OpenInfo rather than as an error.
//
// The returned OpenInfo says which path ran. Open validates
// Options for the build paths (NewMapper does), and returns typed
// *OptionError values wrapping ErrInvalidOptions on bad options.
func Open(opts OpenOptions) (*Mapper, OpenInfo, error) {
	var info OpenInfo
	if len(opts.ShardServers) > 0 {
		if opts.IndexPath == "" {
			return nil, info, fmt.Errorf("jem: ShardServers needs IndexPath (the manifest carries the sketch parameters and the fleet fingerprint)")
		}
		if opts.RebuildOnCorrupt {
			return nil, info, fmt.Errorf("jem: ShardServers is incompatible with RebuildOnCorrupt (remote serving has no local table to rebuild)")
		}
		m, err := openRemote(opts)
		if err != nil {
			return nil, info, err
		}
		info.FromIndex = true
		info.Remote = true
		info.Memory = heapMemoryInfo(m)
		return m, info, nil
	}
	if opts.IndexPath != "" {
		// The build paths validate the full Options inside NewMapper; a
		// pure load takes its sketch parameters from the index, so only
		// the serving-side Memory spec needs checking here.
		if err := opts.Options.Memory.validate(); err != nil {
			return nil, info, err
		}
		m, mem, err := openIndexFile(opts)
		if err == nil {
			info.FromIndex = true
			info.Memory = mem
			return m, info, nil
		}
		if !opts.RebuildOnCorrupt || opts.Contigs == nil || !errors.Is(err, ErrIndexChecksum) {
			return nil, info, err
		}
		info.Rebuilt = true
		info.IndexErr = err
	} else if opts.Contigs == nil {
		return nil, info, fmt.Errorf("jem: Open needs Contigs, an IndexPath, or both")
	}
	m, err := NewMapper(opts.Contigs, opts.Options)
	if err != nil {
		return nil, OpenInfo{}, err
	}
	info.Memory = heapMemoryInfo(m)
	return m, info, nil
}

// openRemote opens the index manifest against a shard-server fleet:
// core reads the manifest (parameters, subjects, fingerprint), calls
// back here to dial and handshake every server, and checks the fleet
// serves the index the manifest describes before it builds anything.
// The returned mapper owns the coordinator's connection pools; release
// them with Mapper.Close.
//
//jem:detached construction-time dial: Open predates context threading, and the dial budget is bounded by the coordinator's dial timeout
func openRemote(opts OpenOptions) (*Mapper, error) {
	reg := opts.Options.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var coord *shardnet.Coordinator
	cm, err := core.OpenRemoteFile(opts.IndexPath, func() (core.ShardQuerier, error) {
		var err error
		if coord, err = shardnet.Dial(context.Background(), opts.ShardServers, shardnet.Config{}, reg); err != nil {
			return nil, fmt.Errorf("dialing shard servers: %w", err)
		}
		return coord, nil
	})
	if err != nil {
		if coord != nil {
			_ = coord.Close()
		}
		return nil, fmt.Errorf("jem: index %s over shard servers: %w", opts.IndexPath, err)
	}
	return loadedMapper(cm, reg, opts.Options.Workers, Memory{}, opts.Contigs, coord), nil
}

// openIndexFile loads the index file honoring the Memory spec and
// adopts the caller's serving knobs (the index stores sketch
// parameters, not serving preferences). Under MemoryMMap or MemoryAuto
// the index is served from a read-only file mapping (owned by the
// returned mapper — released by Mapper.Close); under MemoryHeap, or on
// a host without mmap, its payloads are read onto the heap.
func openIndexFile(opts OpenOptions) (*Mapper, MemoryInfo, error) {
	reg := opts.Options.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sp := reg.Tracer().Start("index.load")
	rd := sp.Child("read")
	cm, ci, closer, err := core.OpenIndexFileObserved(opts.IndexPath, opts.Options.Memory.spec(), rd)
	rd.End()
	if err != nil {
		sp.End()
		return nil, MemoryInfo{}, fmt.Errorf("jem: loading index: %w", err)
	}
	sp.End()
	m := loadedMapper(cm, reg, opts.Options.Workers, opts.Options.Memory, opts.Contigs, closer)
	return m, memInfoFromCore(opts.Options.Memory.Mode, ci), nil
}

// loadedMapper wraps a core mapper loaded from an index — its file, or
// its manifest behind a shard fleet — in the facade. The index
// supplies the sketch parameters; the caller supplies the serving
// knobs, the contig records and the closer that releases the serving
// backend (a mapping or a fleet's connections; nil when none).
func loadedMapper(cm *core.Mapper, reg *obs.Registry, workers int, mem Memory, contigs []Record, closer io.Closer) *Mapper {
	p := cm.Sketcher().Params()
	o := Options{
		K: p.K, W: p.W, Trials: p.T, SegmentLen: p.L, Seed: p.Seed,
		Metrics: reg,
		Workers: workers,
		Memory:  mem,
	}
	if sh := cm.Shards(); sh > 1 {
		o.Shards = sh
	}
	return &Mapper{opts: o, core: cm, contigs: contigs, reg: reg, met: newMapperMetrics(reg, cm.Shards()), closer: closer}
}
