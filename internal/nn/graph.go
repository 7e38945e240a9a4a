package nn

import (
	"fmt"
	"sync"
)

// InputName is the reserved node name that refers to the graph input.
const InputName = "input"

// node is one vertex of the computation DAG.
type node struct {
	layer  Layer
	inputs []string // predecessor node names ("input" for the graph input)
}

// Graph is a single-input, single-output DAG of layers. Layers must be
// added in topological order (each input must already exist), which also
// fixes the execution order. A Graph holds topology, shapes and costs;
// a Runner (WithScratch, or an idle one from AcquireRunner) executes
// it, and BeginMemo evaluates it through the graph's prefix memo. A
// Graph must not be copied after first use.
type Graph struct {
	nodes  map[string]*node
	order  []string // topological execution order
	output string   // defaults to the last added layer

	runnersMu sync.Mutex
	idle      []*Runner  // released Runners over this graph, warm arenas
	memo      prefixMemo // prefix activations of repeated evaluations (BeginMemo)
}

// NewGraph creates an empty computation graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*node)}
}

// Add appends a layer whose inputs are the named predecessor nodes (or
// InputName). With no inputs given, the layer consumes the previously
// added layer (or the graph input if it is the first). The layer's name
// must be unique. The last added layer becomes the graph output.
func (g *Graph) Add(l Layer, inputs ...string) error {
	name := l.Name()
	if name == "" || name == InputName {
		return fmt.Errorf("nn: invalid layer name %q", name)
	}
	if _, dup := g.nodes[name]; dup {
		return fmt.Errorf("nn: duplicate layer name %q", name)
	}
	if len(inputs) == 0 {
		if len(g.order) == 0 {
			inputs = []string{InputName}
		} else {
			inputs = []string{g.order[len(g.order)-1]}
		}
	}
	for _, in := range inputs {
		if in == InputName {
			continue
		}
		if _, ok := g.nodes[in]; !ok {
			return fmt.Errorf("nn: layer %q references unknown input %q", name, in)
		}
	}
	g.nodes[name] = &node{layer: l, inputs: append([]string(nil), inputs...)}
	g.order = append(g.order, name)
	g.output = name
	return nil
}

// LayerNames returns the layer names in execution order.
func (g *Graph) LayerNames() []string { return append([]string(nil), g.order...) }

// index returns the execution position of the named layer, or -1.
func (g *Graph) index(name string) int {
	for i, n := range g.order {
		if n == name {
			return i
		}
	}
	return -1
}

// Frontier returns the graph's cut frontier before the named layer: the
// nodes that come before it in execution order (InputName first) and
// that it or a later layer reads, plus the output node if it comes
// before. These are the only activations a suffix evaluation from the
// layer needs (Runner.ForwardFrom, the prefix memo), so keeping just
// them bounds a prefix cache to the few tensors crossing the cut.
func (g *Graph) Frontier(from string) ([]string, error) {
	start := g.index(from)
	if start < 0 {
		return nil, fmt.Errorf("nn: unknown layer %q", from)
	}
	return g.frontier(start), nil
}

// frontier is Frontier for the cut before order[start].
func (g *Graph) frontier(start int) []string {
	read := map[string]bool{g.output: true}
	for _, name := range g.order[start:] {
		for _, in := range g.nodes[name].inputs {
			read[in] = true
		}
	}
	var out []string
	if read[InputName] {
		out = append(out, InputName)
	}
	for _, name := range g.order[:start] {
		if read[name] {
			out = append(out, name)
		}
	}
	return out
}

// Layer returns the named layer, or nil.
func (g *Graph) Layer(name string) Layer {
	n, ok := g.nodes[name]
	if !ok {
		return nil
	}
	return n.layer
}

// Layers returns all layers in execution order.
func (g *Graph) Layers() []Layer {
	out := make([]Layer, len(g.order))
	for i, name := range g.order {
		out[i] = g.nodes[name].layer
	}
	return out
}

// Inputs returns the input node names of the named layer.
func (g *Graph) Inputs(name string) []string {
	n, ok := g.nodes[name]
	if !ok {
		return nil
	}
	return append([]string(nil), n.inputs...)
}

// NumParams returns the total parameter count of the graph.
func (g *Graph) NumParams() int {
	total := 0
	for _, name := range g.order {
		total += NumParams(g.nodes[name].layer)
	}
	return total
}

// InferShapes propagates the input shape through the graph, returning each
// node's output shape. It validates the whole topology without running any
// arithmetic, which is how the accelerator simulator obtains layer
// geometry for traffic generation.
func (g *Graph) InferShapes(inputShape []int) (map[string][]int, error) {
	shapes := map[string][]int{InputName: append([]int(nil), inputShape...)}
	for _, name := range g.order {
		n := g.nodes[name]
		in := make([][]int, len(n.inputs))
		for i, inName := range n.inputs {
			s, ok := shapes[inName]
			if !ok {
				return nil, fmt.Errorf("nn: layer %q: missing shape for %q", name, inName)
			}
			in[i] = s
		}
		out, err := n.layer.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %q: %w", name, err)
		}
		shapes[name] = out
	}
	return shapes, nil
}

// LayerCosts returns each layer's MAC count for the given input shape, in
// execution order.
func (g *Graph) LayerCosts(inputShape []int) (map[string]uint64, error) {
	shapes, err := g.InferShapes(inputShape)
	if err != nil {
		return nil, err
	}
	costs := make(map[string]uint64, len(g.order))
	for _, name := range g.order {
		n := g.nodes[name]
		in := make([][]int, len(n.inputs))
		for i, inName := range n.inputs {
			in[i] = shapes[inName]
		}
		c, err := n.layer.Cost(in)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %q: %w", name, err)
		}
		costs[name] = c
	}
	return costs, nil
}
