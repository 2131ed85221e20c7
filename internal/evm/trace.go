package evm

import (
	"math/big"

	"repro/internal/types"
)

// TraceEventKind enumerates the events recorded in a transaction trace.
type TraceEventKind int

// Trace event kinds.
const (
	// TraceCall records entry into a call frame.
	TraceCall TraceEventKind = iota + 1
	// TraceReturn records a call frame returning (Err set on revert).
	TraceReturn
	// TraceSLoad records a storage read.
	TraceSLoad
	// TraceSStore records a storage write.
	TraceSStore
	// TraceTransfer records a plain value transfer (possibly triggering a
	// fallback).
	TraceTransfer
)

// String implements fmt.Stringer.
func (k TraceEventKind) String() string {
	switch k {
	case TraceCall:
		return "call"
	case TraceReturn:
		return "return"
	case TraceSLoad:
		return "sload"
	case TraceSStore:
		return "sstore"
	case TraceTransfer:
		return "transfer"
	default:
		return "unknown"
	}
}

// TraceEvent is one entry of a transaction execution trace. Runtime
// verification tools (the ECF checker of § V-B) consume these.
type TraceEvent struct {
	// Kind is the event type.
	Kind TraceEventKind
	// Depth is the call depth at which the event occurred (0 = top-level).
	Depth int
	// From and To identify the acting and target accounts.
	From, To types.Address
	// Method is the method name for call events.
	Method string
	// Slot and Word carry storage addresses/values for storage events.
	Slot, Word types.Hash
	// Amount is the value moved for transfer/call events.
	Amount *big.Int
	// Err is the revert reason for return events of failed frames.
	Err string
}

// Trace is the ordered event log of a single transaction execution.
type Trace struct {
	// Events in execution order.
	Events []TraceEvent

	// inline backs Events until it grows past a one-frame call's call
	// and return events and two storage events between them.
	inline [4]TraceEvent
}

// newTrace returns an empty trace whose first events need no allocation
// of their own.
func newTrace() *Trace {
	t := &Trace{}
	t.Events = t.inline[:0]
	return t
}

func (t *Trace) add(e TraceEvent) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, e)
}

// CallsTo returns the indexes of call events targeting addr.
func (t *Trace) CallsTo(addr types.Address) []int {
	var out []int
	for i, e := range t.Events {
		if e.Kind == TraceCall && e.To == addr {
			out = append(out, i)
		}
	}
	return out
}

// MaxDepth returns the deepest call depth observed.
func (t *Trace) MaxDepth() int {
	max := 0
	for _, e := range t.Events {
		if e.Depth > max {
			max = e.Depth
		}
	}
	return max
}
