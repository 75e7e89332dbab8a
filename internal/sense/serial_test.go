package sense

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestScopeJSONRoundTrip pins the journal's core requirement: a scope that
// went through marshal/unmarshal is indistinguishable — bit for bit — from
// the live one, including merge behaviour and crossing counts.
func TestScopeJSONRoundTrip(t *testing.T) {
	margins := []float64{0.01, 0.023, 0.04}
	s := NewScope(1.0, margins)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		s.Sample(1.0 + 0.1*(rng.Float64()-0.6))
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	restored := &Scope{}
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, restored) {
		t.Fatalf("scope did not round-trip:\n  live:     %#v\n  restored: %#v", s, restored)
	}

	// Merging a restored scope must equal merging the live one.
	a, b := NewScope(1.0, margins), NewScope(1.0, margins)
	a.Merge(s)
	b.Merge(restored)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge of restored scope diverged from merge of live scope")
	}
	for _, m := range margins {
		if s.Crossings(m) != restored.Crossings(m) {
			t.Fatalf("crossings at %g: live %d, restored %d", m, s.Crossings(m), restored.Crossings(m))
		}
	}
}

func TestScopeJSONRoundTripEmpty(t *testing.T) {
	s := NewScope(1.1, nil)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	restored := &Scope{}
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Samples() != 0 || restored.VNom() != 1.1 {
		t.Fatalf("empty scope restored wrong: %#v", restored)
	}
	// The ±Inf min/max sentinels must survive so the first Sample after a
	// restore still establishes the extremes.
	restored.Sample(1.05)
	if got := restored.MinDroopPercent(); got <= 0 {
		t.Errorf("restored empty scope lost its extreme sentinels: min droop %g", got)
	}
}

func TestScopeUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{}`,
		`{"vnom":1.0}`,
		`{"vnom":1.0,"hist":{"lo":1,"hi":0,"counts":[],"total":0,"sum":0}}`,
		`{"vnom":1.0,"margins":[0.04,0.01],"below":[false,false],"crossings":[0,0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
		`{"vnom":1.0,"margins":[0.01],"below":[],"crossings":[0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
		`{"vnom":1.0,"hist":{"lo":-20,"hi":20,"counts":[3],"total":3,"sum":1}}`,
		// Duplicate margins: two identical thresholds double-count every
		// crossing, and NewScope could never have built this scope — restore
		// must be exactly as strict as construction.
		`{"vnom":1.0,"margins":[0.01,0.01],"below":[false,false],"crossings":[0,0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
		`{"vnom":1.0,"margins":[0.01,0.02,0.02,0.04],"below":[false,false,false,false],"crossings":[0,0,0,0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
		// Out-of-range margins.
		`{"vnom":1.0,"margins":[0],"below":[false],"crossings":[0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
		`{"vnom":1.0,"margins":[1],"below":[false],"crossings":[0],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`,
	} {
		s := &Scope{}
		if err := json.Unmarshal([]byte(bad), s); err == nil {
			t.Errorf("corrupt scope state accepted: %s", bad)
		}
	}
}

// TestScopeUnmarshalRejectsNonPrefixBelow pins the restore of the below
// state: a live scope is below a prefix of its ascending margins, so a
// payload below a margin but not below a smaller one is rejected, and a
// prefix restores as its length.
func TestScopeUnmarshalRejectsNonPrefixBelow(t *testing.T) {
	const state = `{"vnom":1.0,"margins":[0.01,0.02,0.04],"below":%s,"crossings":[1,1,1],"hist":{"lo":-20,"hi":20,"counts":[0],"total":0,"sum":0}}`
	for _, bad := range []string{"[false,true,false]", "[true,false,true]", "[false,false,true]"} {
		if err := json.Unmarshal([]byte(fmt.Sprintf(state, bad)), &Scope{}); err == nil {
			t.Errorf("non-prefix below %s accepted", bad)
		}
	}
	for want, ok := range []string{"[false,false,false]", "[true,false,false]", "[true,true,false]", "[true,true,true]"} {
		s := &Scope{}
		if err := json.Unmarshal([]byte(fmt.Sprintf(state, ok)), s); err != nil {
			t.Fatalf("prefix below %s rejected: %v", ok, err)
		}
		if s.below != want {
			t.Errorf("below %s restored as %d margins, want %d", ok, s.below, want)
		}
	}
}
