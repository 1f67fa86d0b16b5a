package main

import (
	"flag"
	"strings"
	"testing"
)

// TestValidateFlags: contradictory flags are refused up front, every
// contradiction named in one error.
func TestValidateFlags(t *testing.T) {
	two := []string{"http://a", "http://b"}
	for _, tc := range []struct {
		name   string
		shards int
		dir    string
		id     int
		addrs  []string
		want   []string // substrings of the error; none = valid
	}{
		{name: "monolith", shards: 1, id: -1},
		{name: "monolith store", shards: 1, dir: "d", id: -1},
		{name: "shard process store", shards: 1, dir: "d", id: 1, addrs: two},
		{name: "coordinator tier", shards: 1, id: -1, addrs: two},
		{name: "store on coordinator tier", shards: 1, dir: "d", id: -1, addrs: two, want: []string{"coordinator tier"}},
		{name: "shard id without addrs", shards: 1, id: 0, want: []string{"-shard-id requires -shard-addrs"}},
		{name: "shard id outside addrs", shards: 1, id: 2, addrs: two, want: []string{"outside the 2-entry"}},
		{name: "all listed at once", shards: 0, id: 0, want: []string{"-shards must be", "-shard-id requires"}},
	} {
		err := validateFlags(tc.shards, tc.dir, tc.id, tc.addrs)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// TestFlagSurface: the command line is 16 flags, and the retired
// -journal is not one of them — a stale invocation fails at flag
// parsing instead of being half-honoured.
func TestFlagSurface(t *testing.T) {
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			n++
		}
	})
	if n != 16 || flag.Lookup("journal") != nil {
		t.Errorf("%d flags (journal defined: %v), want 16 without -journal", n, flag.Lookup("journal") != nil)
	}
}
