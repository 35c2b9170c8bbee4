package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
)

// tableRows returns, ascending, every row the table holds under key.
func tableRows(t *joinTable, h uint64, key []byte) []int {
	var ids []int
	for id := t.lookup(h, key); id >= 0; id = t.after(id, h, key) {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	return ids
}

// checkAgainstMap inserts keys (hashed by hash) and requires the table
// to return, for every present key and some absent ones, exactly the
// row ids a map[string][]int collected.
func checkAgainstMap(t *testing.T, keys []string, hash func(string) uint64) *joinTable {
	t.Helper()
	var tab joinTable
	ref := make(map[string][]int)
	for id, k := range keys {
		tab.insert(hash(k), []byte(k))
		ref[k] = append(ref[k], id)
	}
	for k, want := range ref {
		if got := tableRows(&tab, hash(k), []byte(k)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key %q: rows %v, want %v", k, got, want)
		}
	}
	for _, k := range []string{"", "absent", "k-1", "\x00"} {
		if _, ok := ref[k]; !ok {
			if got := tableRows(&tab, hash(k), []byte(k)); got != nil {
				t.Fatalf("absent key %q: rows %v", k, got)
			}
		}
	}
	return &tab
}

func hashString(k string) uint64 { return expr.Hash64([]byte(k)) }

func TestJoinTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t.Run("empty build", func(t *testing.T) {
		checkAgainstMap(t, nil, hashString)
	})
	t.Run("heavy duplicates", func(t *testing.T) {
		keys := make([]string, 20000)
		for i := range keys {
			// 40 hot keys carry half the rows; the rest spread over 5000.
			if rng.Intn(2) == 0 {
				keys[i] = fmt.Sprintf("hot-%d", rng.Intn(40))
			} else {
				keys[i] = fmt.Sprintf("k%d", rng.Intn(5000))
			}
		}
		checkAgainstMap(t, keys, hashString)
	})
	t.Run("growth from the first bucket array", func(t *testing.T) {
		keys := make([]string, joinTableMinBuckets*8+1)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
		}
		tab := checkAgainstMap(t, keys, hashString)
		if got := len(tab.buckets); got < joinTableMinBuckets*16 {
			t.Fatalf("%d rows left %d buckets: fewer than 3 rehashes from %d",
				len(keys), got, joinTableMinBuckets)
		}
	})
	t.Run("one shard's hashes", func(t *testing.T) {
		// A shard only ever sees hashes with equal top bits, routed to
		// its instance by h % n, which for n = 64 fixes the low six; its
		// buckets must spread on the bits between.
		keys := make([]string, 4096)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
		}
		const top, low = 63 << (64 - shardBits), 63
		inShard := func(k string) uint64 { return hashString(k)&^(top|low) | 5<<(64-shardBits) | 9 }
		tab := checkAgainstMap(t, keys, inShard)
		used := 0
		for _, head := range tab.buckets {
			if head >= 0 {
				used++
			}
		}
		if used < len(tab.buckets)/2 {
			t.Fatalf("%d keys occupy %d of %d buckets", len(keys), used, len(tab.buckets))
		}
	})
	t.Run("full hash collisions", func(t *testing.T) {
		// Every key hashes alike, so only the key bytes tell rows apart.
		keys := make([]string, 600)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i%200)
		}
		checkAgainstMap(t, keys, func(string) uint64 { return 0xfeedface })
	})
}

// TestHashJoinBuildAllocs pins the build's allocation behaviour: rows go
// into arena pages and flat table arrays, so what is allocated per row
// is the amortised growth of those arrays plus the arena's bookkeeping
// per 4 KB page (512 of these rows), and nothing per row.
func TestHashJoinBuildAllocs(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	const rows = 1_000_000
	p := buildPartition(sch, rows, 64<<10, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i%400_000)))
	})
	empty := buildPartition(sch, 0, 1024, nil)
	keys := []expr.Expr{expr.NewCol(0, "k")}
	ctx := &Ctx{Term: &TermFlag{}}
	build := func() {
		hj := NewHashJoin(NewScan(p.Schema, p), NewScan(empty.Schema, empty), sch, sch, keys, keys)
		if st := hj.Open(ctx); st != OK {
			t.Fatalf("Open = %v", st)
		}
		if hj.BuildRows() != rows {
			t.Fatalf("built %d rows", hj.BuildRows())
		}
		hj.Close()
	}
	if per := testing.AllocsPerRun(3, build) / rows; per > 0.01 {
		t.Fatalf("hash join build allocates %.4f objects per row, want at most 0.01", per)
	}
}
