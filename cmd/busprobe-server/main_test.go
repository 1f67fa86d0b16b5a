package main

import (
	"strings"
	"testing"
)

// TestValidateFlags: contradictory flags are refused up front, every
// contradiction named in one error.
func TestValidateFlags(t *testing.T) {
	two := []string{"http://a", "http://b"}
	for _, tc := range []struct {
		name    string
		shards  int
		journal string
		dir     string
		id      int
		addrs   []string
		want    []string // substrings of the error; none = valid
	}{
		{name: "monolith", shards: 1, id: -1},
		{name: "monolith store + legacy", shards: 1, journal: "j", dir: "d", id: -1},
		{name: "shard process store + legacy", shards: 1, journal: "j", dir: "d", id: 1, addrs: two},
		{name: "coordinator tier", shards: 1, id: -1, addrs: two},
		{name: "journal without store", shards: 1, journal: "j", id: -1, want: []string{"-journal", "-store-dir"}},
		{name: "store on coordinator tier", shards: 1, dir: "d", id: -1, addrs: two, want: []string{"coordinator tier"}},
		{name: "journal on coordinator tier", shards: 1, journal: "j", dir: "d", id: -1, addrs: two, want: []string{"coordinator tier"}},
		{name: "shard id without addrs", shards: 1, id: 0, want: []string{"-shard-id requires -shard-addrs"}},
		{name: "shard id outside addrs", shards: 1, id: 2, addrs: two, want: []string{"outside the 2-entry"}},
		{name: "all listed at once", shards: 0, journal: "j", id: 0, want: []string{"-shards must be", "needs -store-dir", "-shard-id requires"}},
	} {
		err := validateFlags(tc.shards, tc.journal, tc.dir, tc.id, tc.addrs)
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
