package network

import (
	"testing"

	"repro/internal/block"
	"repro/internal/telemetry"
)

type nopOutbox struct{}

func (nopOutbox) Destinations() int            { return 2 }
func (nopOutbox) Send(int, *block.Block) error { return nil }
func (nopOutbox) CloseSend() error             { return nil }

// TestScopedOutboxSpansOffBuildsNoName pins the disabled-span path of
// the accounting shim: a cross-node Send allocates the BlockSent record
// it emits and nothing else — in particular not the span's name, which
// StartSpan would throw away.
func TestScopedOutboxSpansOffBuildsNoName(t *testing.T) {
	acct := newExchangeAccount(telemetry.NewScope("spans-off"), 3, []int{0, 1})
	ob := acct.wrap(nopOutbox{}, 0)
	blk := mkBlock(1, 2, 3)
	if a := testing.AllocsPerRun(1000, func() { _ = ob.Send(1, blk) }); a > 1 {
		t.Fatalf("cross-node scopedOutbox.Send with spans off allocates %.1f times, want 1", a)
	}
}
