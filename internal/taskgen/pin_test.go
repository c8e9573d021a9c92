package taskgen

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGeneratedHashesPinned pins the content hash of a few generated
// tasksets. The generators are pure functions of the RNG stream, so any
// change to the order or number of draws, or to how drawn values become
// WCETs, edges and requests, shows up here as a hash mismatch.
func TestGeneratedHashesPinned(t *testing.T) {
	// Every generated taskset, and so every verdict and golden, depends on
	// this stream: a change here must be deliberate and documented.
	want := map[string]string{
		"2a/U=4.8":                  "c1ce6cfbb56fd9a9ac59f106049603dbd470b525a66f81aff4e94094e7d3f1dc",
		"2a/U=9.6":                  "86d07336ed2d8fe802b8d44f878bc9aa76b903b30fbe264b24aed0ded82a4b73",
		"2b/U=9.6":                  "6c6de9e3e2b6c334a79502985bb85423377ebf38c70ea6ca631c4b797408e8f4",
		"2b/U=19.2":                 "be53f15b5487db8ae102acb19027a8a3dc51cfb5f8fec5ee2480dc8ad709ece5",
		"2c/U=4.8":                  "d20742fe6d10201dfd886acf013758df884c74b165b4ccb8edc55ecce4f2aa35",
		"2c/U=9.6":                  "a228e34b32fa9661a2b44d776f3a81e8a62726068c26b61632f603d7ff84bcf8",
		"2d/U=9.6":                  "f2763190b3af06e895c251dd2ecbc5b6230408312807c76f7229bd9d703089d0",
		"2d/U=19.2":                 "4fb890590e1893657220b81c241bffd918c52d5524924d30b6abe62fae1a2bb9",
		"adversarial/chain":         "e16447dade80691c1671de92e9f839970c3da1f40ddf561987728bfc4d479bd1",
		"adversarial/fork-join":     "13d409f109f8876f916d58c5d5ffe38faa9317a03ef534efb5d01f4cbffbe5ef",
		"adversarial/layered":       "02a54954540974de95efa06726d700fffa57be8b929dd4bbb4e7770640163b4e",
		"adversarial/single-vertex": "5a097d4815127b9c95ed3887f0314b73eccdd1c713b7ec82884347e33f22a150",
		"adversarial/contention":    "68e2db17dc0226db66723cba9abb34c40e4cbe674b105d0253ec7d0207167820",
	}
	for _, sub := range []string{"2a", "2b", "2c", "2d"} {
		s, err := Fig2Scenario(sub)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(s)
		for _, frac := range []float64{0.3, 0.6} {
			u := frac * float64(s.M)
			ts, err := g.Taskset(rand.New(rand.NewSource(2020)), u)
			if err != nil {
				t.Fatalf("%s U=%g: %v", sub, u, err)
			}
			key := fmt.Sprintf("%s/U=%g", sub, u)
			if got := ts.Hash().String(); got != want[key] {
				t.Errorf("%s: hash %s, want %s", key, got, want[key])
			}
		}
	}
	a := NewAdversarial()
	for _, shape := range Shapes() {
		ts, err := a.TasksetWithShape(rand.New(rand.NewSource(2020)), shape)
		if err != nil {
			t.Fatalf("adversarial %s: %v", shape, err)
		}
		key := "adversarial/" + shape.String()
		if got := ts.Hash().String(); got != want[key] {
			t.Errorf("%s: hash %s, want %s", key, got, want[key])
		}
	}
}
