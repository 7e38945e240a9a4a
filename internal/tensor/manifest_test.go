package tensor

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestGoldenManifestKernelsDefined: every kernel the committed LeNet-5
// manifest lists as available is a kernel this package defines, so a
// deleted kernel cannot linger in the golden.
func TestGoldenManifestKernelsDefined(t *testing.T) {
	data, err := os.ReadFile("../../results/lenet.manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Available []string `json:"matmul_kernels_available"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Available) == 0 {
		t.Fatal("golden manifest lists no kernels")
	}
	defined := []string{KernelGeneric, KernelAVX2}
	for _, k := range m.Available {
		if !slices.Contains(defined, k) {
			t.Errorf("golden manifest lists kernel %q; internal/tensor defines %v", k, defined)
		}
	}
}
