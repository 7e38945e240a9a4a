package experiments

import (
	"slices"
	"testing"
)

func TestParetoFront(t *testing.T) {
	// pt is maximized on both axes; group limits comparisons the way
	// overlapDominates limits them to one model.
	type pt struct{ group, x, y int }
	dominates := func(q, p pt) bool {
		if q.group != p.group || q.x < p.x || q.y < p.y {
			return false
		}
		return q.x > p.x || q.y > p.y
	}
	for _, tc := range []struct {
		name   string
		points []pt
		want   []bool
	}{
		{"empty", nil, []bool{}},
		{"single", []pt{{0, 1, 1}}, []bool{true}},
		{"one dominated", []pt{{0, 2, 2}, {0, 1, 2}, {0, 3, 1}}, []bool{true, false, true}},
		{"tie on one axis", []pt{{0, 2, 1}, {0, 2, 3}}, []bool{false, true}},
		{"trade-off", []pt{{0, 1, 3}, {0, 3, 1}}, []bool{true, true}},
		{"duplicates share the front", []pt{{0, 2, 2}, {0, 2, 2}, {0, 1, 1}}, []bool{true, true, false}},
		{"other group never dominates", []pt{{0, 1, 1}, {1, 5, 5}}, []bool{true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := paretoFront(tc.points, dominates); !slices.Equal(got, tc.want) {
				t.Errorf("paretoFront(%v) = %v, want %v", tc.points, got, tc.want)
			}
		})
	}
}
