package pipeline

// This file builds engines for the multi-tenant control plane
// (internal/plan + internal/control): instead of owning a whole
// construct.Solution and its reconfig.Manager, a placed engine runs on a
// *placement* — a contiguous processor segment of the pool's global
// pipeline, carved by the planner — and takes new ones via ApplyPlacement.
//
// A placement change is a remap like any fault remap, only with a
// different step: the pump drains the tenant's in-flight frames with
// their stage progress, installs the segment, requeues the unfinished
// frames ahead of the backlog, and rebuilds the chain, so a cross-tenant
// remap loses, duplicates, and reorders nothing.

import (
	"errors"
	"fmt"

	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/stages"
)

// ErrPlaced is returned by Inject/Repair on a placed engine, which has no
// manager of its own: faults are pool-level events handled by the
// executor's coordinated replan, not by individual engines.
var ErrPlaced = errors.New("pipeline: engine is externally placed; route faults through the control plane")

// ErrNotPlaced is returned by ApplyPlacement on an engine built by New,
// whose segment follows its own manager's pipeline.
var ErrNotPlaced = errors.New("pipeline: engine plans its own pipeline; ApplyPlacement requires NewPlaced")

// WithTenant labels the engine with its tenant name; remap spans carry it
// as the "tenant" attribute.
func WithTenant(name string) Option {
	return func(e *Engine) { e.tenant = name }
}

// NewPlaced builds an engine over the shared pool graph g running on the
// given placement segment (processors only, in pipeline order). The
// engine does not solve or repair: placements come from the planner, and
// faults reach it only as ApplyPlacement calls. The stage instances are
// owned by the engine and keep their state across placement changes.
func NewPlaced(g *graph.Graph, seg graph.Path, stgs []stages.Stage, opts ...Option) (*Engine, error) {
	if len(stgs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one stage")
	}
	if err := checkPlacement(g, seg); err != nil {
		return nil, err
	}
	return newEngine(g, stgs, seg, opts), nil
}

// Tenant returns the engine's tenant label ("" when unset).
func (e *Engine) Tenant() string { return e.tenant }

// checkPlacement is the engine-side structural audit of a segment: a
// non-empty simple path of processors in the pool graph. Fault- and
// coverage-level validation (verify.CheckSegment) is the planner's job —
// the engine does not track the pool fault set.
func checkPlacement(g *graph.Graph, seg graph.Path) error {
	if len(seg) == 0 {
		return fmt.Errorf("pipeline: empty placement")
	}
	if !seg.Distinct() {
		return fmt.Errorf("pipeline: placement revisits a node")
	}
	if !seg.IsWalk(g) {
		return fmt.Errorf("pipeline: placement uses a non-edge")
	}
	for _, v := range seg {
		if g.Kind(v) != graph.Processor {
			return fmt.Errorf("pipeline: placement node %d is a %v, not a processor", v, g.Kind(v))
		}
	}
	return nil
}

// ApplyPlacement remaps a placed engine onto a new segment. While a
// stream is active the placement routes through the pump: in-flight
// frames are drained with their stage progress, requeued ahead of the
// backlog, and resumed on the new segment — the same zero-loss contract
// as a fault remap. parent (nil outside coordinated replans) becomes the
// causal parent of the remap span, so one replan's per-tenant remaps
// share a root. On error the previous placement stays live.
func (e *Engine) ApplyPlacement(seg graph.Path, parent *span.S) error {
	if e.mgr != nil {
		return ErrNotPlaced
	}
	return e.remap(remapReq{op: opReplan, parent: parent, step: func(*span.S) (graph.Path, error) {
		return seg, checkPlacement(e.g, seg)
	}})
}
