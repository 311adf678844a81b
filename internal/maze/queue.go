package maze

import "math/bits"

// qItem is one frontier entry: a node and its key, math.Float64bits of
// f = path cost + heuristic. f is never negative, so keys order like f.
type qItem struct {
	k    uint64
	node int32
}

// before is the strict queue order: smaller key first, smaller node index
// on exact key ties.
func (a qItem) before(b qItem) bool {
	return a.k < b.k || (a.k == b.k && a.node < b.node)
}

// chunkCap sizes a qChunk to the allocator's 512-byte class.
const chunkCap = 31

// qChunk is a fixed block of queue items. A bucket is a chain of chunks of
// which only the head may be partly filled; the head fills from the top
// index down, and how much room it has left is kept in the queue itself, so
// a push touches the chunk only to store the item.
type qChunk struct {
	next  *qChunk
	items [chunkCap]qItem
}

// radixQueue is the search frontier: an exact min-priority queue on
// (k, node) — it pops precisely what a binary heap under qItem.before
// would, so the settle order on equal keys is a property of the graph, not
// of push order: one of the two ingredients (with the canonical parent rule
// in relax) that makes A* and Dijkstra produce bit-identical geometry.
//
// It is a radix heap. low, a binary min-heap, holds every item whose key is
// at most last; bucket b (1..64, the chain heads[b-1]) holds the items whose
// key exceeds last and first differs from it at bit b-1, so a lower bucket
// holds strictly smaller keys. When low runs dry the lowest non-empty
// bucket — found through the occupancy mask — is emptied: its smallest key
// becomes last and its items fall into low and the buckets below. A search
// pops non-decreasing keys (DESIGN.md), so low normally holds exact key
// ties only; a push at or below last, which float rounding can produce,
// just lands in low and stays exact. Chunks come from a free list and are
// never returned to the allocator: the queue retains the peak item count
// plus at most one partly filled chunk per bucket.
type radixQueue struct {
	last   uint64
	mask   uint64 // bit b-1 set iff bucket b is non-empty
	low    []qItem
	heads  [64]*qChunk
	room   [64]uint8 // free slots left in heads[b]; 0 for an empty bucket too
	free   *qChunk
	chunks int // chunks ever allocated
}

func (q *radixQueue) empty() bool { return len(q.low) == 0 && q.mask == 0 }

// reset empties the queue, returning every chained chunk to the free list.
func (q *radixQueue) reset() {
	q.low = q.low[:0]
	q.last = 0
	for ; q.mask != 0; q.mask &= q.mask - 1 {
		b := bits.TrailingZeros64(q.mask)
		for c := q.heads[b]; c != nil; {
			next := c.next
			c.next, q.free = q.free, c
			c = next
		}
		q.heads[b], q.room[b] = nil, 0
	}
}

func (q *radixQueue) push(it qItem) {
	if it.k <= q.last {
		q.pushLow(it)
		return
	}
	b := (bits.Len64(it.k^q.last) - 1) & 63 // the mask spares a bounds check; the keys differ
	r := q.room[b]
	if r == 0 {
		r = q.grow(b)
	}
	r--
	q.heads[b].items[r] = it
	q.room[b] = r
}

// grow gives bucket b+1 a fresh head chunk and returns its room.
func (q *radixQueue) grow(b int) uint8 {
	c := q.free
	if c != nil {
		q.free = c.next
	} else {
		c = new(qChunk)
		q.chunks++
	}
	c.next, q.heads[b] = q.heads[b], c
	q.mask |= 1 << b
	return chunkCap
}

func (q *radixQueue) pushLow(it qItem) {
	q.low = append(q.low, it)
	h := q.low
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the least item; the queue must not be empty.
func (q *radixQueue) pop() qItem {
	if len(q.low) == 0 {
		q.refill()
	}
	h := q.low
	n := len(h) - 1
	top, it := h[0], h[n]
	q.low = h[:n]
	// Sift the displaced last item down from the root.
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(it) {
			break
		}
		h[i] = h[j]
		i = j
	}
	if n > 0 {
		h[i] = it
	}
	return top
}

// refill empties the lowest non-empty bucket into low and the buckets below
// it. The bucket being drained has no partly filled head of its own and a
// chunk is freed as soon as it is drained, so redistribution keeps the
// arena within the bound above.
func (q *radixQueue) refill() {
	b := bits.TrailingZeros64(q.mask)
	c, from := q.heads[b], int(q.room[b])
	q.heads[b], q.room[b] = nil, 0
	q.mask &^= 1 << b
	min := ^uint64(0)
	for p, i := c, from; p != nil; p, i = p.next, 0 {
		for _, it := range p.items[i:] {
			if it.k < min {
				min = it.k
			}
		}
	}
	q.last = min
	for c != nil {
		for _, it := range c.items[from:] {
			q.push(it)
		}
		next := c.next
		c.next, q.free = q.free, c
		c, from = next, 0
	}
}
