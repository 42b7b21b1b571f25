// Package inkstream implements the paper's contribution: event-based
// incremental GNN inference on dynamic graphs.
//
// The engine consumes a checkpointed full-inference state (gnn.State) and a
// batch of edge/vertex modifications (ΔG), and updates the cached
// embeddings following the design principle "Propagate only when necessary.
// Fetch only the necessary":
//
//   - Inter-layer (Sec. II-B): effects travel as events along graph edges,
//     one layer per step. Nodes found resilient — receiving events but
//     ending with an unchanged embedding — prune their propagation subtree.
//   - Intra-layer (Sec. II-C): a target node's aggregated neighborhood α is
//     evolved incrementally from the previous timestamp whenever the
//     grouped events permit (always for accumulative aggregators; in the
//     no-reset and covered-reset conditions for monotonic ones); on an
//     exposed reset the neighborhood is scanned for the exposed channels
//     only, and just those are rebuilt.
//
// Monotonic aggregators (max/min) yield bit-identical results to full
// recomputation; accumulative ones (mean/sum) are equivalent up to
// floating-point reassociation.
package inkstream

import (
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Op is the operation an event applies to its target's aggregated
// neighborhood (Sec. II-B): Add/Del for monotonic aggregation functions,
// Update for accumulative ones. User-defined events are a separate type
// (UserEvent) with their own hooks.
type Op uint8

const (
	// OpAdd merges the payload into the target's α (monotonic layers).
	OpAdd Op = iota
	// OpDel cancels the payload's old contribution from the target's α
	// (monotonic layers); channels where the payload attains α must be
	// reset.
	OpDel
	// OpUpdate adds the (signed) payload to the target's neighborhood sum
	// (accumulative layers).
	OpUpdate
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "Add"
	case OpDel:
		return "Del"
	case OpUpdate:
		return "Update"
	}
	return "Op(?)"
}

// Event is the native event of the computing model: an operation, a target
// node, and an embedding payload. Only the changed-edge events of a batch
// (at most two per changed edge per layer) are ever materialised as Events.
// The effect of a changed message travels as one MessageChange record per
// source, and the grouping pass walks that source's out-neighbors itself
// (DESIGN.md §4, item 1): the paper's separation of lightweight metadata from
// heavy embeddings, taken to no per-arc metadata at all. Payloads alias
// engine-owned vectors and must be treated as immutable.
type Event struct {
	Op      Op
	Target  graph.NodeID
	Payload tensor.Vector
}

// UserEvent is a user-defined event (Sec. II-D) carrying an optional
// payload and an application-defined tag. The engine routes user events
// through the installed UserHooks; their semantics are entirely
// hook-defined.
type UserEvent struct {
	Target  graph.NodeID
	Payload tensor.Vector
	Tag     int
}

// UserHooks is the extension interface of Sec. II-D. The engine invokes
// Propagate when a node's next-layer message changes, Reduce when grouping
// a target's user events, and Apply when processing a target that received
// user events. Implementations must be safe for concurrent Apply calls on
// distinct targets and must only mutate per-target state.
type UserHooks interface {
	// Propagate is called at the end of processing layer `layer` for each
	// affected node u whose message for layer+1 changed from oldM to newM
	// (layer == -1 for vertex-feature updates feeding layer 0). It appends
	// its events to dst, a reusable engine-owned buffer, and returns the
	// extended slice; they are delivered when layer+1 is processed.
	Propagate(layer int, u graph.NodeID, oldM, newM tensor.Vector, dst []UserEvent) []UserEvent
	// Reduce groups/reduces the user events heading to one target
	// (user_grouping in the paper). The result replaces evts.
	Reduce(target graph.NodeID, evts []UserEvent) []UserEvent
	// Apply processes the reduced user events for target at `layer` and
	// reports whether the target's layer output must be recomputed even if
	// its aggregated neighborhood did not change.
	Apply(layer int, target graph.NodeID, evts []UserEvent) bool
}

// NopHooks ignores all user-event machinery; models whose update depends
// only on the aggregated neighborhood (e.g. GCN) need nothing more.
type NopHooks struct{}

func (NopHooks) Propagate(_ int, _ graph.NodeID, _, _ tensor.Vector, dst []UserEvent) []UserEvent {
	return dst
}
func (NopHooks) Reduce(_ graph.NodeID, evts []UserEvent) []UserEvent { return evts }
func (NopHooks) Apply(int, graph.NodeID, []UserEvent) bool           { return false }

// SelfHooks is the built-in configuration for self-dependent models
// (GraphSAGE's W2·h term, GIN's (1+ε)·h term): when a node's message
// changes and the next layer consults the node's own message, a
// self-directed event forces that node's update in the next layer. This is
// the "less than 10 lines of additional code" the paper quotes for
// configuring GraphSAGE.
type SelfHooks struct {
	// SelfDependent reports whether layer l's update consults the node's
	// own message.
	SelfDependent func(l int) bool
}

func (h SelfHooks) Propagate(layer int, u graph.NodeID, _, _ tensor.Vector, dst []UserEvent) []UserEvent {
	if h.SelfDependent(layer + 1) {
		dst = append(dst, UserEvent{Target: u})
	}
	return dst
}

func (h SelfHooks) Reduce(_ graph.NodeID, evts []UserEvent) []UserEvent {
	if len(evts) > 1 {
		evts = evts[:1] // duplicates are idempotent
	}
	return evts
}

func (h SelfHooks) Apply(int, graph.NodeID, []UserEvent) bool { return true }
