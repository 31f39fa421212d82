package decoder

import (
	"fmt"
	"sort"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// Backend is one EDU decode implementation behind a common interface: it
// consumes the bit-packed syndrome of one patch window and produces the
// correction plus a modeled cycle cost, so alternative decoders (the
// exact spike/token matcher, union-find, ...) can be raced against each
// other on accuracy and latency and swapped into the streaming decoder
// and the cycle-level pipeline.
//
// Contract, pinned by verify.CheckBackends and FuzzUnionFind:
//
//   - the correction's own syndrome must equal the input syndrome exactly
//     (error + correction is syndrome-free), for every input — physically
//     realizable or not;
//   - decoding is a pure function of the syndrome: identical inputs give
//     identical Results on the same backend, on a fresh backend, and on a
//     Clone;
//   - the total correction weight is never below the exact matcher's
//     (DecodePatch is minimum-weight for every cluster size, so it
//     lower-bounds every valid backend).
//
// A Backend owns private scratch and is single-goroutine; Clone gives
// each worker its own.
type Backend interface {
	// Name is the registry key ("matching", "union-find", ...).
	Name() string
	// Decode writes the correction for one window's syndrome into res
	// (whose slices are truncated and reused) and returns the modeled
	// EDU cycle cost of producing it.
	Decode(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, res *Result) uint64
	// Clone returns a backend of the same kind with its own scratch.
	Clone() Backend
}

// backendFactories is the registry; construction stays behind factories
// so every caller gets private scratch.
var backendFactories = map[string]func() Backend{
	"matching":   func() Backend { return NewMatchingBackend() },
	"union-find": func() Backend { return NewUnionFindBackend() },
}

// BackendNames lists the registered backends in deterministic order.
func BackendNames() []string {
	names := make([]string, 0, len(backendFactories))
	for name := range backendFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBackendByName constructs a registered backend.
func NewBackendByName(name string) (Backend, error) {
	if f, ok := backendFactories[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("decoder: unknown backend %q (have %v)", name, BackendNames())
}

// spikeWaitBackend mirrors microarch.SpikeWaitCycles: the token cell
// waits for the racing spikes to cross the patch-sized cell window and
// reflect before committing a match (4*(d+1) cell hops). Duplicated here
// because microarch imports this package.
func spikeWaitBackend(d int) int { return 4 * (d + 1) }

// matchingCycleCost is the priority-encoder EDU latency model for a list
// of committed matches: one token-allocation cycle per match plus the
// spike round trip (2 steps per chain hop, the patch-crossing wait, and
// the per-token overhead) — the same per-match terms
// microarch.DecodeWindowCycles charges under SchemePriority.
func matchingCycleCost(d int, matches []Match) uint64 {
	total := len(matches)
	wait := spikeWaitBackend(d)
	for _, m := range matches {
		total += 2*m.Steps + wait + spikeOverheadCycles
	}
	return uint64(total)
}

// MatchingBackend adapts the production spike/token matcher
// (DecodePatchInto: exact minimum-weight matching per cluster) to the
// Backend interface. It meets the differential contract against
// ReferenceDecodePatch (see CheckDifferential).
type MatchingBackend struct {
	sc Scratch
}

// NewMatchingBackend returns the exact matcher with fresh scratch.
func NewMatchingBackend() *MatchingBackend { return &MatchingBackend{} }

// Name implements Backend.
func (b *MatchingBackend) Name() string { return "matching" }

// Clone implements Backend.
func (b *MatchingBackend) Clone() Backend { return NewMatchingBackend() }

// Decode implements Backend via DecodePatchInto.
func (b *MatchingBackend) Decode(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, res *Result) uint64 {
	DecodePatchInto(c, basis, syn, &b.sc, res)
	return matchingCycleCost(c.D, res.Matches)
}
