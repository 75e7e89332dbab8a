package sense

import (
	"encoding/json"
	"fmt"

	"voltsmooth/internal/stats"
)

// scopeState is the exported wire form of a Scope, used by the campaign
// journal to persist completed measurement runs. Thresholds are not
// stored: they are recomputed from vnom and the margins exactly as
// NewScope computes them, so a restored scope counts crossings (and
// merges) bit-identically to the live one.
type scopeState struct {
	VNom      float64          `json:"vnom"`
	Samples   uint64           `json:"samples"`
	Margins   []float64        `json:"margins,omitempty"`
	Below     []bool           `json:"below,omitempty"`
	Crossings []uint64         `json:"crossings,omitempty"`
	Hist      *stats.Histogram `json:"hist"`
}

// MarshalJSON implements json.Marshaler. It writes the below state as one
// boolean per margin, true for the first s.below of them.
func (s *Scope) MarshalJSON() ([]byte, error) {
	below := make([]bool, len(s.margins))
	for i := 0; i < s.below; i++ {
		below[i] = true
	}
	return json.Marshal(scopeState{
		VNom:      s.vnom,
		Samples:   s.samples,
		Margins:   s.margins,
		Below:     below,
		Crossings: s.crossings,
		Hist:      s.hist,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Scope) UnmarshalJSON(data []byte) error {
	var st scopeState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.VNom <= 0 || st.Hist == nil {
		return fmt.Errorf("sense: scope state missing nominal voltage or histogram")
	}
	if len(st.Below) != len(st.Margins) || len(st.Crossings) != len(st.Margins) {
		return fmt.Errorf("sense: scope state with mismatched margin arrays (%d margins, %d below, %d crossings)",
			len(st.Margins), len(st.Below), len(st.Crossings))
	}
	// Restore is exactly as strict as construction: a margin list NewScope
	// would reject (out of range, unsorted, or duplicated) is rejected here
	// too, so no journal payload can smuggle in a scope that could not have
	// been built live.
	if err := validateMargins(st.Margins); err != nil {
		return err
	}
	// A live scope is below a prefix of its margins; any other below
	// state could not have been sampled, so it is rejected too.
	below := 0
	for below < len(st.Below) && st.Below[below] {
		below++
	}
	for i := below; i < len(st.Below); i++ {
		if st.Below[i] {
			return fmt.Errorf("sense: scope state below margin %g but not below the smaller margin %g",
				st.Margins[i], st.Margins[below])
		}
	}
	thr := make([]float64, len(st.Margins))
	for i, m := range st.Margins {
		thr[i] = st.VNom * (1 - m)
	}
	s.vnom = st.VNom
	s.hist = st.Hist
	s.samples = st.Samples
	s.margins = st.Margins
	s.threshold = thr
	s.below = below
	s.crossings = st.Crossings
	if s.margins == nil {
		s.margins = []float64{}
	}
	return nil
}
