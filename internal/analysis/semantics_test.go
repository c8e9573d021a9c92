package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestSemanticsFingerprint pins what the analyses answer over the
// equivalence corpus and the light-task set of Sec. VI: every method's
// verdict, WCRTs and reason. Caches and
// stores key results on SemanticsVersion, so a change to any answer must
// bump it; this test fails until SemanticsVersion is bumped and
// semanticsFingerprint re-pinned together.
func TestSemanticsFingerprint(t *testing.T) {
	if got := answersFingerprint(t); got != semanticsFingerprint {
		t.Fatalf("analysis answers changed: fingerprint %s, pinned %s for SemanticsVersion %d.\n"+
			"If the change is intended, bump SemanticsVersion and set semanticsFingerprint to the new value.",
			got, semanticsFingerprint, SemanticsVersion)
	}
}

// answersFingerprint hashes one line per (taskset, method): the verdict
// and reason, then the WCRT of every task that has one, in task-ID order.
func answersFingerprint(t *testing.T) string {
	h := sha256.New()
	for i, ts := range append(equivalenceCorpus(t), lightSet(t)) {
		for _, m := range Methods() {
			res := Test(m, ts, Options{})
			fmt.Fprintf(h, "%d|%s|%t|%q", i, m, res.Schedulable, res.Reason)
			for _, task := range ts.Tasks {
				if r, ok := res.WCRT[task.ID]; ok {
					fmt.Fprintf(h, "|%d:%d", task.ID, r)
				}
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
