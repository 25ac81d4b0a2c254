package place

// CrossingCount exposes the net-size wirelength correction to the external
// tests.
var CrossingCount = crossingCount

// RefPlace exposes the reference annealer (ref_test.go) to the external
// tests.
var RefPlace = refPlace
