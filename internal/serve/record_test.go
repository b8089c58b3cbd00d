package serve

import (
	"context"
	"testing"
	"time"

	"reramtest/internal/tensor"
)

// A deadline timer whose fire lost its race with Stop runs expire late: after
// the record was recycled, or after it was admitted again. The record's next
// request must come out unexpired either way.
func TestStaleDeadlineFireIgnored(t *testing.T) {
	s := &Server{inDim: 2}
	r := s.newRecord().(*record)
	x := tensor.New(1, 2)

	r.admit(context.Background(), x, time.Now())
	select {
	case <-r.expired:
	case <-time.After(5 * time.Second):
		t.Fatal("a passed deadline never closed expired")
	}
	s.recycle(r)
	r.expire() // late, while the record is in the pool
	r.admit(context.Background(), x, time.Now().Add(time.Hour))
	select {
	case <-r.expired:
		t.Fatal("the record came back from the pool expired")
	default:
	}
	r.expire() // late, against the next request
	select {
	case <-r.expired:
		t.Fatal("a stale fire expired the next request")
	default:
	}
	if err := r.err(); err != nil {
		t.Fatalf("the next request reads %v", err)
	}
	s.recycle(r)
}
