package hb

// Height and ChainCover are the poset structure only tests ask for: the
// Mirsky dual of Width, and the Dilworth decomposition Width counts.

// Height returns the length (number of events) of the longest chain in the
// computation — Mirsky's dual of width. An empty trace has height 0.
func (o *Oracle) Height() int {
	// The trace order is a linearization, so a forward DP over immediate
	// successors computes longest-path lengths.
	if o.n == 0 {
		return 0
	}
	h := make([]int, o.n)
	best := 1
	for i := 0; i < o.n; i++ {
		h[i]++ // count the event itself
		if h[i] > best {
			best = h[i]
		}
		if s := o.succThread[i]; s >= 0 && h[s] < h[i] {
			h[s] = h[i]
		}
		if s := o.succObject[i]; s >= 0 && h[s] < h[i] {
			h[s] = h[i]
		}
	}
	return best
}

// ChainCover returns a minimum chain decomposition of the poset: a set of
// chains (event index sequences, each totally ordered by →) that together
// contain every event. Its length equals Width().
func (o *Oracle) ChainCover() [][]int {
	if o.n == 0 {
		return nil
	}
	m := o.splitMatching()

	// Each matched edge (i → j) links i to its chain successor j. Chain
	// heads are events that are no one's successor.
	isSuccessor := make([]bool, o.n)
	for i := 0; i < o.n; i++ {
		if j := m.ThreadMatch[i]; j >= 0 {
			isSuccessor[j] = true
		}
	}
	var chains [][]int
	for i := 0; i < o.n; i++ {
		if isSuccessor[i] {
			continue
		}
		chain := []int{i}
		for cur := i; ; {
			next := m.ThreadMatch[cur]
			if next < 0 {
				break
			}
			chain = append(chain, next)
			cur = next
		}
		chains = append(chains, chain)
	}
	return chains
}
