package experiments

// paretoFront reports, for each point, whether no other point dominates
// it. dominates(q, p) says q is at least as good as p on every axis and
// strictly better on one; it decides which points are comparable at
// all. Equal points do not dominate each other, so duplicates share the
// front. O(n²), which is fine for the sweep sizes here.
func paretoFront[T any](points []T, dominates func(q, p T) bool) []bool {
	front := make([]bool, len(points))
	for i := range points {
		front[i] = true
		for j := range points {
			if i != j && dominates(points[j], points[i]) {
				front[i] = false
				break
			}
		}
	}
	return front
}
