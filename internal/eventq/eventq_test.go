package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[string]
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty should report !ok")
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty should report !ok")
	}
}

func TestOrderingByTime(t *testing.T) {
	var q Queue[int]
	q.PushAt(3, 0, 30)
	q.PushAt(1, 1, 10)
	q.PushAt(2, 2, 20)
	want := []int{10, 20, 30}
	for i, w := range want {
		e, ok := q.Pop()
		if !ok || e.Payload != w {
			t.Fatalf("pop %d = %v (ok=%v), want %d", i, e.Payload, ok, w)
		}
	}
}

func TestTieBreakBySeq(t *testing.T) {
	var q Queue[int]
	q.PushAt(1, 5, 50)
	q.PushAt(1, 2, 20)
	q.PushAt(1, 9, 90)
	want := []int{20, 50, 90}
	for _, w := range want {
		e, _ := q.Pop()
		if e.Payload != w {
			t.Fatalf("tie-break order wrong: got %d, want %d", e.Payload, w)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[int]
	q.PushAt(1, 0, 1)
	if e, ok := q.Peek(); !ok || e.Payload != 1 {
		t.Fatal("Peek wrong")
	}
	if q.Len() != 1 {
		t.Fatal("Peek removed the event")
	}
}

// Property: popping everything yields events sorted by (Time, Seq).
func TestHeapProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		var q Queue[int]
		type key struct {
			t float64
			s int64
		}
		keys := make([]key, n)
		for i := 0; i < n; i++ {
			k := key{t: float64(r.Intn(10)), s: int64(r.Intn(1000))}
			keys[i] = k
			q.PushAt(k.t, k.s, i)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].t != keys[j].t {
				return keys[i].t < keys[j].t
			}
			return keys[i].s < keys[j].s
		})
		for i := 0; i < n; i++ {
			e, ok := q.Pop()
			if !ok {
				return false
			}
			if e.Time != keys[i].t || e.Seq != keys[i].s {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q Queue[int]
		for j, tt := range times {
			q.PushAt(tt, int64(j), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

// TestSteadyStateAllocs pins the queue's engine-facing contract: once the
// backing slice has grown, Push and Pop are allocation-free. The previous
// container/heap implementation boxed every event through `any`, costing one
// allocation per Push and per Pop on the simulation hot path.
func TestSteadyStateAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.PushAt(float64(i), int64(i), i) // grow the backing slice
	}
	allocs := testing.AllocsPerRun(200, func() {
		q.PushAt(3.5, 999, 42)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+Pop allocates %v per cycle, want 0", allocs)
	}
}
