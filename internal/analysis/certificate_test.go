package analysis

import (
	"testing"

	"dpcpp/internal/partition"
)

// TestWCRTsAreCertified requires every finite WCRT the analysis claims to
// pass Certify, the one-evaluation check that taskWCRT also runs to admit a
// view. It covers EP at the default path cap and at cap 2 (where EN
// fallbacks are common) and EN, over the equivalence corpus and the light
// set, which Algorithm1 packs, so the Sec. VI shared view is checked too.
func TestWCRTsAreCertified(t *testing.T) {
	corpus := append(equivalenceCorpus(t), lightSet(t))
	for _, cfg := range []struct {
		pathCap int
		en      bool
	}{{DefaultPathCap, false}, {2, false}, {DefaultPathCap, true}} {
		certified := 0
		for ci, ts := range corpus {
			res := partition.Algorithm1(ts, NewDPCPp(ts, cfg.pathCap, cfg.en), partition.WFD)
			if res.Partition == nil {
				continue
			}
			n, err := NewDPCPp(ts, cfg.pathCap, cfg.en).Certify(res.Partition, res.WCRT)
			if err != nil {
				t.Errorf("cap %d en=%v corpus %d: %v", cfg.pathCap, cfg.en, ci, err)
			}
			certified += n
		}
		t.Logf("cap %d en=%v: %d WCRTs certified", cfg.pathCap, cfg.en, certified)
		if certified == 0 {
			t.Errorf("cap %d en=%v: no finite WCRT to certify", cfg.pathCap, cfg.en)
		}
	}
}
