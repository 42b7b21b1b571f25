package gnn

import "repro/internal/tensor"

// Layer is one GNN layer in the paper's abstraction (Fig. 3): a message
// (combination) function 𝒯 feeding an aggregation 𝒜, followed by an update
// combining the aggregated neighborhood α_{l,u} and — for self-dependent
// models like GraphSAGE and GIN — the node's own message m_{l,u}, with an
// element-wise activation.
//
// Per-node semantics, matching Sec. II notation:
//
//	m_{l,u}   = ComputeMessage(h_{l,u})
//	α_{l,u}   = 𝒜(m_{l,v} : v ∈ N(u))
//	h_{l+1,u} = Update(α_{l,u}, m_{l,u})   (= act(𝒯(α, m)))
//
// InkStream's expressiveness condition (1) — "one node's message in a layer
// only depends on its message and aggregated neighborhood in the previous
// layer" — is enforced by this interface shape: Update sees only the two
// per-node vectors.
type Layer interface {
	// Name identifies the layer for diagnostics ("gcn[0]").
	Name() string
	// InDim is the dimension of h_l, MsgDim of m_l and α_l, OutDim of
	// h_{l+1}.
	InDim() int
	MsgDim() int
	OutDim() int
	// Agg is the layer's aggregation function.
	Agg() Aggregator
	// SelfDependent reports whether Update reads m (the node's own
	// message). When true, a node whose embedding changed at layer l-1
	// also affects *itself* at layer l, which InkStream models with a
	// self-directed user event (Sec. II-D).
	SelfDependent() bool
	// ComputeMessage writes m_{l,u} into dst (len MsgDim) from h_{l,u}
	// (len InDim).
	ComputeMessage(dst, h tensor.Vector)
	// Update writes h_{l+1,u} into dst (len OutDim) from α_{l,u} and
	// m_{l,u} (both len MsgDim). Implementations must not retain or
	// mutate alpha/m.
	Update(dst, alpha, m tensor.Vector)
	// MessageFLOPs and UpdateFLOPs report the per-node floating point cost
	// of the two phases, used by the instrumented engines.
	MessageFLOPs() int64
	UpdateFLOPs() int64
}

// Recorder is what the per-call cost formulas charge: a shared
// *metrics.Counters, or a worker's own *metrics.Tally flushed into one later.
type Recorder interface {
	FetchVec(n int)
	StoreVec(n int)
	AddFLOPs(n int64)
}

// CountMessage records the cost of one ComputeMessage call against c.
func CountMessage(c Recorder, l Layer) {
	c.FetchVec(l.InDim())
	c.AddFLOPs(l.MessageFLOPs())
	c.StoreVec(l.MsgDim())
}

// CountUpdate records the cost of one Update call against c.
func CountUpdate(c Recorder, l Layer) {
	c.FetchVec(l.MsgDim()) // α
	if l.SelfDependent() {
		c.FetchVec(l.MsgDim()) // own message
	}
	c.AddFLOPs(l.UpdateFLOPs())
	c.StoreVec(l.OutDim())
}
