package hub

import "testing"

// TestRunQueueReusesArray: a run queue that cycles tenants through pops and
// pushes at a steady length keeps its array, so scheduling allocates
// nothing, and it stays FIFO across the moves back to the array's front.
func TestRunQueueReusesArray(t *testing.T) {
	ts := make([]*tenant, 8)
	for i := range ts {
		ts[i] = &tenant{name: string(rune('a' + i))}
	}
	var q runQueue
	for _, tn := range ts[:5] {
		q.push(tn)
	}
	next := 5
	cycle := func() {
		got := q.pop()
		q.push(ts[next%len(ts)])
		next++
		if want := ts[(next-6)%len(ts)]; got != want {
			t.Fatalf("popped %s, want %s", got.name, want.name)
		}
	}
	for range 64 {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("steady scheduling: %v allocs per pop and push, want 0", n)
	}
	if q.len() != 5 {
		t.Errorf("queue length %d, want 5", q.len())
	}
	q.truncate(2)
	if items := q.items(); len(items) != 2 || cap(q.buf) > 16 {
		t.Errorf("after truncate: %d items in an array of %d", len(items), cap(q.buf))
	}
}
