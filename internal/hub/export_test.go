package hub

import "time"

// LatBucket and LatSampleEvery expose the latency bucketing and sampling
// rate to the package's external tests.
func LatBucket(d time.Duration) int { return latBucket(d) }

const LatSampleEvery = latSampleEvery
