package cloud

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/market"
)

// RequestID identifies a persistent spot request.
type RequestID string

// spotRequest is a persistent spot request: whenever it has no live
// instance and the market price is at or below the bid, a fresh
// instance launches — EC2's "persistent" request type, which the
// one-shot requests of the paper's framework can be compared against.
type spotRequest struct {
	ID        RequestID
	Zone      string
	Type      market.InstanceType
	Bid       market.Money
	Cancelled bool
	Current   InstanceID   // live or starting instance, "" when none
	History   []InstanceID // every instance ever launched by it

	// refulfilAt is the next minute the request may relaunch
	// (engine.NoMinute when fulfilled, cancelled, or the price never
	// returns to the bid). The price is piecewise-constant, so the
	// relaunch minute is known as soon as the instance dies.
	refulfilAt int64
}

// RequestSpotPersistent opens a persistent spot request. The first
// instance launches immediately if the bid clears the current price,
// otherwise as soon as the price falls to the bid.
func (p *Provider) RequestSpotPersistent(zone string, it market.InstanceType, bid market.Money) (RequestID, error) {
	if it != p.traces.Type {
		return "", fmt.Errorf("cloud: provider serves %s, requested %s", p.traces.Type, it)
	}
	maxBid, err := market.PoolMaxBid(zone, it)
	if err != nil {
		return "", err
	}
	if bid > maxBid {
		return "", fmt.Errorf("cloud: bid %v exceeds cap %v", bid, maxBid)
	}
	if _, ok := p.traces.ByZone[zone]; !ok {
		return "", fmt.Errorf("cloud: unknown zone %q", zone)
	}
	p.nextID++
	req := &spotRequest{
		ID:   RequestID(fmt.Sprintf("sir-%06d", p.nextID)),
		Zone: zone, Type: it, Bid: bid,
		refulfilAt: engine.NoMinute,
	}
	if p.requests == nil {
		p.requests = make(map[RequestID]*spotRequest)
	}
	p.requests[req.ID] = req
	p.requestOrder = append(p.requestOrder, req.ID)
	p.fulfil(req)
	return req.ID, nil
}

// fulfil launches an instance for a request when the market allows,
// otherwise schedules the retry for the next affordable minute.
func (p *Provider) fulfil(req *spotRequest) {
	if req.Cancelled || req.Current != "" {
		return
	}
	c, err := p.cursor(req.Zone)
	if err != nil {
		panic(err) // zone validated when the request was opened
	}
	price := c.PriceAt(p.now)
	if price > req.Bid {
		p.scheduleRefulfil(req, p.now)
		return
	}
	if down, until := p.zoneDown(req.Zone); down {
		p.scheduleRefulfil(req, until)
		return
	}
	inst := p.launch(req.Zone, req.Type, true, req.Bid, req, 0)
	req.Current = inst.ID
	req.History = append(req.History, inst.ID)
	req.refulfilAt = engine.NoMinute
	if p.observers.Active() {
		p.observers.Publish(engine.Event{
			Minute: p.now, Kind: engine.KindRequestFulfilled,
			Instance: string(inst.ID), Request: string(req.ID),
			Zone: req.Zone, Spot: true, Amount: req.Bid,
		})
	}
}

// scheduleRefulfil records the first minute >= from the request could
// relaunch and folds it into the provider's wakeup horizon.
func (p *Provider) scheduleRefulfil(req *spotRequest, from int64) {
	req.refulfilAt = p.nextMinuteAtOrBelow(req.Zone, req.Bid, from)
	if req.refulfilAt < p.refulfilNext {
		p.refulfilNext = req.refulfilAt
	}
}

// stepRequests runs after instance state transitions at a minute some
// request is due to relaunch. Requests are scanned in creation order —
// the same order the original per-minute loop used — so relaunch RNG
// draws replay identically.
func (p *Provider) stepRequests() {
	m := p.now
	next := engine.NoMinute
	for _, id := range p.requestOrder {
		req := p.requests[id]
		if req.Cancelled || req.Current != "" {
			continue
		}
		if req.refulfilAt <= m {
			p.fulfil(req)
		}
		if req.Current == "" && req.refulfilAt < next {
			next = req.refulfilAt
		}
	}
	p.refulfilNext = next
}

// CancelSpotRequest closes a persistent request. When terminate is
// true its current instance is user-terminated too.
func (p *Provider) CancelSpotRequest(id RequestID, terminate bool) error {
	req, ok := p.requests[id]
	if !ok {
		return fmt.Errorf("cloud: unknown spot request %s", id)
	}
	req.Cancelled = true
	req.refulfilAt = engine.NoMinute
	if terminate && req.Current != "" {
		if err := p.Terminate(req.Current); err != nil {
			return err
		}
		req.Current = ""
	}
	return nil
}

// RequestInstance returns the request's current instance ("" if none).
func (p *Provider) RequestInstance(id RequestID) (InstanceID, error) {
	req, ok := p.requests[id]
	if !ok {
		return "", fmt.Errorf("cloud: unknown spot request %s", id)
	}
	return req.Current, nil
}

// RequestAlive reports whether the request currently backs a live
// instance.
func (p *Provider) RequestAlive(id RequestID) bool {
	req, ok := p.requests[id]
	if !ok || req.Current == "" {
		return false
	}
	return p.Alive(req.Current)
}

// RequestHistory lists every instance a request has launched.
func (p *Provider) RequestHistory(id RequestID) ([]InstanceID, error) {
	req, ok := p.requests[id]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown spot request %s", id)
	}
	return append([]InstanceID(nil), req.History...), nil
}

// RequestCharge totals the bills of every instance the request
// launched.
func (p *Provider) RequestCharge(id RequestID) (market.Money, error) {
	req, ok := p.requests[id]
	if !ok {
		return 0, fmt.Errorf("cloud: unknown spot request %s", id)
	}
	var total market.Money
	for _, iid := range req.History {
		c, err := p.Charge(iid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
