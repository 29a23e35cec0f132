package market

// Billing implements the EC2 spot charging rules from §2.1 of the paper:
//
//   - A spot instance is charged hourly, at the last spot price observed
//     during each instance-hour (not at the bid).
//   - If the provider terminates the instance (out-of-bid failure), the
//     final partial hour is free.
//   - If the user terminates the instance, the final partial hour is
//     charged as a full hour, as with on-demand instances.
//
// All times are in minutes, the time unit of the semi-Markov price model.

// MinutesPerHour is the billing granularity conversion.
const MinutesPerHour = 60

// PriceFunc reports the spot price in effect at a given minute.
type PriceFunc func(minute int64) Money

// Termination describes who ended an instance's life.
type Termination int

const (
	// TerminatedByProvider marks an out-of-bid termination: the final
	// partial hour is not charged.
	TerminatedByProvider Termination = iota
	// TerminatedByUser marks a deliberate shutdown: the final partial
	// hour is charged as a full hour.
	TerminatedByUser
)

// SpotCharge computes the total charge for a spot instance that ran from
// minute start (inclusive) to minute end (exclusive), with the given
// termination cause. price must be valid over [start, end). start == end
// yields zero; start > end panics.
func SpotCharge(price PriceFunc, start, end int64, cause Termination) Money {
	if start > end {
		panic("market: SpotCharge with start > end")
	}
	var total Money
	for hourStart := start; hourStart < end; hourStart += MinutesPerHour {
		hourEnd := hourStart + MinutesPerHour
		if hourEnd <= end {
			// Complete instance-hour: charged at the last price in it.
			total += price(hourEnd - 1)
			continue
		}
		// Final partial hour.
		if cause == TerminatedByUser {
			total += price(end - 1)
		}
		// Provider-terminated partial hour is free.
	}
	return total
}

// OnDemandCharge computes the charge for an on-demand instance running
// from minute start (inclusive) to minute end (exclusive): every started
// hour is billed in full at the fixed hourly price.
func OnDemandCharge(hourly Money, start, end int64) Money {
	if start > end {
		panic("market: OnDemandCharge with start > end")
	}
	mins := end - start
	hours := mins / MinutesPerHour
	if mins%MinutesPerHour != 0 {
		hours++
	}
	return hourly * Money(hours)
}
