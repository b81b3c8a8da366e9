package topo_test

import (
	"math/rand"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// linearLPM is a brute-force reference for LongestMatch.
func linearLPM(fib []topo.FIBEntry, addr uint32) []*topo.Interface {
	best := -1
	var outs []*topo.Interface
	for _, e := range fib {
		if !e.Prefix.Matches(addr) {
			continue
		}
		switch {
		case e.Prefix.Len > best:
			best = e.Prefix.Len
			outs = []*topo.Interface{e.Out}
		case e.Prefix.Len == best:
			outs = append(outs, e.Out)
		}
	}
	return outs
}

func TestLPMTrieAgainstLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for iter := 0; iter < 50; iter++ {
		n := topo.NewNetwork()
		d := n.Device("R")
		var ifaces []*topo.Interface
		for i := 0; i < 4; i++ {
			ifaces = append(ifaces, d.Interface(string(rune('a'+i))))
		}
		routes := 1 + r.Intn(40)
		for i := 0; i < routes; i++ {
			p := header.Prefix{
				Addr: uint32(r.Intn(8)) << 28,
				Len:  []int{0, 4, 8, 12, 16, 24, 32}[r.Intn(7)],
			}
			p.Addr |= r.Uint32() >> 4 // noise in lower bits
			p = p.Canonical()
			d.AddRoute(p, ifaces[r.Intn(len(ifaces))])
		}
		for j := 0; j < 200; j++ {
			addr := r.Uint32()
			got := d.LongestMatch(addr)
			want := linearLPM(d.FIB, addr)
			if len(got) != len(want) {
				t.Fatalf("iter %d addr %x: trie %v vs linear %v", iter, addr, got, want)
			}
			gotSet := map[*topo.Interface]int{}
			for _, o := range got {
				gotSet[o]++
			}
			for _, o := range want {
				if gotSet[o] == 0 {
					t.Fatalf("iter %d addr %x: missing %v", iter, addr, o.ID())
				}
				gotSet[o]--
			}
		}
	}
}

func TestLPMInvalidatedByAddRoute(t *testing.T) {
	n := topo.NewNetwork()
	d := n.Device("R")
	i1, i2 := d.Interface("1"), d.Interface("2")
	p := header.MustParsePrefix("1.2.0.0/16")
	d.AddRoute(p, i1)
	if got := d.LongestMatchClass(p); len(got) != 1 || got[0] != i1 {
		t.Fatalf("first lookup: %v", got)
	}
	// Adding a more specific route must rebuild the LPM trie — the class
	// is no longer atomic and the lookup must now panic.
	d.AddRoute(header.MustParsePrefix("1.2.3.0/24"), i2)
	defer func() {
		if recover() == nil {
			t.Fatal("stale trie: expected atomicity panic after route insertion")
		}
	}()
	d.LongestMatchClass(p)
}
