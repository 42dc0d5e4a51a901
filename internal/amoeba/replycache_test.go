package amoeba

import "testing"

// mapCache is the reply cache the ring with its own index replaced, kept
// as the reference: a Go map from transaction id to reply beside a ring
// of the cached ids, oldest at head once full.
type mapCache struct {
	seen  map[int64]cachedReply
	order []int64
	head  int
}

func (c *mapCache) add(rep cachedReply) {
	c.seen[rep.txid] = rep
	if len(c.order) < replyWindow {
		c.order = append(c.order, rep.txid)
	} else {
		delete(c.seen, c.order[c.head])
		c.order[c.head] = rep.txid
		c.head = (c.head + 1) % replyWindow
	}
}

// FuzzReplyCacheMatchesMap drives the reply cache and the map it
// replaced with one stream of replies and lookups, two bytes an
// operation, and requires the same hit or miss and the same reply for
// every lookup. Ids are minted as ServiceID mints them, a machine's id
// above bit 40 and its counter below, for four machines at once; a
// lookup reaches back up to 4095 ids of a machine, across the window's
// edge. A reply is to an id the cache does not hold, as Server.handle
// guarantees: a fresh one, or one that has left the window (a late
// duplicate executed again). Ids of several machines share buckets: a
// run of twice the window's replies from more than one machine must
// have added some to a bucket that already held one.
func FuzzReplyCacheMatchesMap(f *testing.F) {
	f.Add([]byte{0, 255, 4, 255, 8, 255, 12, 255, 2, 1, 2, 5, 6, 9, 254, 13})
	f.Add([]byte{1, 200, 5, 200, 9, 200, 13, 200, 1, 200, 5, 200, 2, 0, 254, 255, 3, 240, 3, 4, 2, 240, 2, 4})
	seed := make([]byte, 0, 512)
	for i := 0; i < 128; i++ { // fill, wrap and probe both edges
		seed = append(seed, byte(i%4)<<2, byte(17*i))
		seed = append(seed, 2|byte(i%16)<<2, byte(13*i))
		seed = append(seed, 3|byte(i%16)<<2, byte(7*i))
		seed = append(seed, 2, byte(i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var c replyCache
		ref := mapCache{seen: map[int64]cachedReply{}}
		var minted [4]int64
		adds, chained, machines := 0, 0, 0
		add := func(txid int64) {
			if len(c.bucket) > 0 && c.bucket[c.slot(txid)] != 0 {
				chained++
			}
			adds++
			rep := cachedReply{txid: txid, args: one(txid), body: adds}
			c.add(rep)
			ref.add(rep)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			m := int64(a>>2) & 3
			back := int64(a>>4)<<8 | int64(b)
			id := m<<40 | (minted[m] - back)
			switch a & 3 {
			case 0, 1: // 1 to 256 fresh replies from machine m
				if minted[m] == 0 {
					machines++
				}
				for range int(b) + 1 {
					minted[m]++
					add(m<<40 | minted[m])
				}
			case 2: // a lookup
				got, want := c.get(id), ref.seen[id]
				if _, hit := ref.seen[id]; hit != (got != nil) {
					t.Fatalf("op %d: id %#x cached %t, the map says %t", i/2, id, got != nil, hit)
				}
				if got != nil && (got.txid != id || Get[int64](&got.args, 0) != id || got.body != want.body) {
					t.Fatalf("op %d: id %#x answered %#x %v %v, the map %v %v", i/2, id, got.txid, got.args.Values(), got.body, want.args.Values(), want.body)
				}
			case 3: // a late duplicate executed again, if it has left the window
				if _, hit := ref.seen[id]; !hit && back < minted[m] {
					add(id)
				}
			}
		}
		if c.n != len(ref.seen) {
			t.Fatalf("the cache holds %d replies, the map %d", c.n, len(ref.seen))
		}
		for id, want := range ref.seen {
			if got := c.get(id); got == nil || got.body != want.body {
				t.Fatalf("id %#x: the map holds reply %v, the cache %v", id, want.body, got)
			}
		}
		if adds >= 2*replyWindow && machines > 1 && chained == 0 {
			t.Fatalf("%d replies from %d machines never shared a bucket with a cached one", adds, machines)
		}
	})
}
