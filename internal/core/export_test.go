package core

// CarriedLen exposes, to this package's tests only, the payload length a
// reply carries; 0 when it carries none and PayloadLen would measure.
func (r *RTKResponse) CarriedLen() int { return r.payloadLen }

// FixedNoise is fixedNoise, for this package's external tests.
type FixedNoise = fixedNoise
