package main

import (
	"strings"
	"testing"
)

func TestDigestCheck(t *testing.T) {
	pinned := map[string]string{"w/a": hashBytes([]byte("a")), "w/b": hashBytes([]byte("b"))}
	for _, tc := range []struct {
		name    string
		pinned  map[string]string
		record  bool
		outputs [][2]string // key, content
		want    []string    // substrings of the expected problems, in order
	}{
		{name: "matching pins", pinned: pinned, outputs: [][2]string{{"w/a", "a"}, {"w/b", "b"}, {"w/a", "a"}}},
		{name: "pin mismatch", pinned: pinned, outputs: [][2]string{{"w/a", "x"}}, want: []string{"w/a: digest"}},
		{name: "missing pin", pinned: pinned, outputs: [][2]string{{"w/c", "c"}}, want: []string{"w/c: no pinned digest"}},
		{name: "repeat differs", pinned: nil, outputs: [][2]string{{"w/a", "x"}, {"w/a", "y"}}, want: []string{"w/a: output differs"}},
		{name: "other seed checks repeats only", pinned: nil, outputs: [][2]string{{"w/a", "x"}, {"w/a", "x"}, {"w/c", "c"}}},
		{name: "recording skips pins", pinned: pinned, record: true, outputs: [][2]string{{"w/a", "x"}, {"w/c", "c"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &digests{pinned: tc.pinned, record: tc.record, seen: map[string]string{}}
			for _, o := range tc.outputs {
				d.check(o[0], hashBytes([]byte(o[1])))
			}
			if len(d.problems) != len(tc.want) {
				t.Fatalf("problems %q, want %d matching %q", d.problems, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(d.problems[i], w) {
					t.Errorf("problem %q does not mention %q", d.problems[i], w)
				}
			}
		})
	}
}

// TestPinnedDigestsCoverEveryWorkload checks that the embedded pins load
// and that every workload with per-output pins has some.
func TestPinnedDigestsCoverEveryWorkload(t *testing.T) {
	d, err := newDigests(true, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"estimate-lanes/", "monitor-detect/", "campaign-smoke/"} {
		n := 0
		for k, v := range d.pinned {
			if strings.HasPrefix(k, prefix) {
				n++
				if len(v) != 64 {
					t.Errorf("pin %s = %q is not a sha256", k, v)
				}
			}
		}
		if n == 0 {
			t.Errorf("no pins for %s", prefix)
		}
	}
}

func TestHashJSONHashesTheEncoding(t *testing.T) {
	type s struct{ A, B int }
	want := hashBytes([]byte(`{"A":1,"B":2}`))
	if got := hashJSON(s{1, 2}); got != want {
		t.Errorf("hashJSON = %s, want %s", got, want)
	}
}
