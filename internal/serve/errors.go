package serve

import (
	"errors"
	"fmt"
	"time"
)

// ErrServerClosed is returned by Server.Predict after Server.Close has been
// called (or has begun). Requests admitted before Close still complete:
// Close drains the queue and waits for in-flight batches before returning.
var ErrServerClosed = errors.New("serve: server closed")

// OverloadedError is the typed load-shed signal: the server's admission
// queue is full and the request was rejected without being enqueued.
// Callers unwrap it with errors.As and may retry after RetryAfter — the
// modeled time the current backlog needs to clear across the replica pool.
type OverloadedError struct {
	// QueueDepth is the number of requests that were already waiting when
	// this one was shed.
	QueueDepth int
	// RetryAfter is a modeled backoff hint: backlog batches times the cost
	// of a full batch, divided across replicas.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded: %d requests queued, retry after %v", e.QueueDepth, e.RetryAfter)
}

// ReplicaFailedError is the typed failure a Flaky backend returns once its
// crash point has passed: the replica's Call-th batched forward (zero-based)
// hit the dead process. The server reacts by evicting the replica and
// retrying the batch on a healthy one; callers only ever see this error when
// the pool has degraded to its last replica. Match with errors.As.
type ReplicaFailedError struct {
	// Call is the zero-based index of the failed ForwardBatch call on the
	// replica's own call sequence.
	Call int
}

func (e *ReplicaFailedError) Error() string {
	return fmt.Sprintf("serve: replica failed (forward call %d)", e.Call)
}
