package layers

import (
	"fmt"
	"sync"
	"time"

	"wanfd/internal/neko"
)

// routerShards is the default number of independent route-table shards.
// Sixteen keeps the per-shard maps small at cluster scale while bounding
// the memory of an idle router; NewRouterSharded widens it for the 1M
// scale profile.
const routerShards = 16

// shardHash hashes a process id with 64-bit FNV-1a, so consecutive ids
// (the common allocation pattern) spread across shards instead of
// clustering.
func shardHash(id neko.ProcessID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// shardIndex maps a process id onto a default-geometry shard.
func shardIndex(id neko.ProcessID) uint64 {
	return shardHash(id) % routerShards
}

type routerShard struct {
	mu     sync.RWMutex
	routes map[neko.ProcessID]neko.Receiver
}

// Router dispatches upward traffic to per-source receivers: the monitor-
// side layer that lets one process watch many monitored processes over a
// single network attachment, keeping one failure detector per peer.
// Messages from unrouted sources pass up the stack unchanged.
//
// The route table is sharded by source id so the receive path, concurrent
// queries and runtime Route/Unroute churn (dynamic cluster membership) do
// not contend on a single lock.
//
// It serves the simulated stacks. The real-network monitor does not route:
// wanfd.MultiMonitor is its endpoint's receiver and reaches a peer's
// detector through the handle the transport stamps on each message.
type Router struct {
	neko.Base
	shards []routerShard
	mask   uint64
}

// NewRouter builds an empty router with the default shard count.
func NewRouter() *Router {
	return NewRouterSharded(routerShards)
}

// NewRouterSharded builds an empty router with n route-table shards; n
// must be a power of two. Scale profiles widen the shard count so
// membership churn contends on a smaller fraction of dispatches.
func NewRouterSharded(n int) *Router {
	if n <= 0 || n&(n-1) != 0 {
		panic("layers: router shard count must be a power of two")
	}
	r := &Router{shards: make([]routerShard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].routes = make(map[neko.ProcessID]neko.Receiver)
	}
	return r
}

// shard returns the shard owning one source id.
func (r *Router) shard(id neko.ProcessID) *routerShard {
	return &r.shards[shardHash(id)&r.mask]
}

var _ neko.Layer = (*Router)(nil)

// Route installs the receiver for messages from one source process.
func (r *Router) Route(from neko.ProcessID, rcv neko.Receiver) error {
	if rcv == nil {
		return fmt.Errorf("layers: nil receiver for source %d", from)
	}
	s := r.shard(from)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.routes[from]; dup {
		return fmt.Errorf("layers: source %d already routed", from)
	}
	s.routes[from] = rcv
	return nil
}

// Unroute removes the receiver for one source process; messages from it
// pass up the stack afterwards. Unrouting an unknown source is an error.
func (r *Router) Unroute(from neko.ProcessID) error {
	s := r.shard(from)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.routes[from]; !ok {
		return fmt.Errorf("layers: source %d not routed", from)
	}
	delete(s.routes, from)
	return nil
}

// Routed returns the number of installed routes.
func (r *Router) Routed() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.routes)
		s.mu.RUnlock()
	}
	return n
}

// route resolves one source's receiver.
func (r *Router) route(from neko.ProcessID) (neko.Receiver, bool) {
	s := r.shard(from)
	s.mu.RLock()
	rcv, ok := s.routes[from]
	s.mu.RUnlock()
	return rcv, ok
}

// Receive dispatches by the message's source.
func (r *Router) Receive(m *neko.Message) {
	if rcv, ok := r.route(m.From); ok {
		rcv.Receive(m)
		return
	}
	r.Base.Receive(m)
}

// ReceiveAt dispatches one timestamped message, forwarding the stamp when
// the route target accepts it.
func (r *Router) ReceiveAt(m *neko.Message, at time.Duration) {
	rcv, ok := r.route(m.From)
	if !ok {
		r.Base.Receive(m)
		return
	}
	if tr, trOK := rcv.(neko.TimedReceiver); trOK {
		tr.ReceiveAt(m, at)
		return
	}
	rcv.Receive(m)
}

// ReceiveBatch dispatches a same-stamp batch. Consecutive messages from
// the same source (the common case when a sender's burst is drained in one
// cycle) reuse the previous route resolution, so the shard lock and the
// interface assertion are paid once per run, not once per message.
func (r *Router) ReceiveBatch(ms []*neko.Message, at time.Duration) {
	var (
		from   neko.ProcessID
		rcv    neko.Receiver
		tr     neko.TimedReceiver
		routed bool
		valid  bool
	)
	for _, m := range ms {
		if !valid || m.From != from {
			rcv, routed = r.route(m.From)
			from, valid = m.From, true
			tr = nil
			if routed {
				tr, _ = rcv.(neko.TimedReceiver)
			}
		}
		switch {
		case tr != nil:
			tr.ReceiveAt(m, at)
		case routed:
			rcv.Receive(m)
		default:
			r.Base.Receive(m)
		}
	}
}

var (
	_ neko.TimedReceiver = (*Router)(nil)
	_ neko.BatchReceiver = (*Router)(nil)
)
