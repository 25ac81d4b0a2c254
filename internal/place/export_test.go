package place

// CrossingCount exposes the net-size wirelength correction to the external
// tests.
var CrossingCount = crossingCount
