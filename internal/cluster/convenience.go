package cluster

import (
	"fmt"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// ConnectedPair is a ready-to-use RC connection between two nodes on
// different hosts of a fresh testbed: the standard fixture of the paper's
// microbenchmarks.
type ConnectedPair struct {
	TB             *Testbed
	ClientNode     *Node
	ServerNode     *Node
	Client, Server *Endpoint
}

// NewConnectedPair builds a testbed with one allow-all tenant, boots a
// client on host 0 and a server on host 1 under the given mode, and brings
// an RC connection to RTS. The testbed's engine is drained and ready for
// workload processes.
func NewConnectedPair(cfg Config, mode Mode) (*ConnectedPair, error) {
	return NewConnectedPairOpts(cfg, mode, DefaultEndpointOpts())
}

// NewConnectedPairOpts is NewConnectedPair with endpoint options.
func NewConnectedPairOpts(cfg Config, mode Mode, opts EndpointOpts) (*ConnectedPair, error) {
	tb := New(cfg)
	const vni = 100
	tb.AddTenant(vni, "tenant")
	tb.AllowAll(vni)
	cNode, err := tb.NewNode(mode, 0, vni, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		return nil, err
	}
	sNode, err := tb.NewNode(mode, 1, vni, packet.NewIP(192, 168, 1, 2))
	if err != nil {
		return nil, err
	}
	cp := &ConnectedPair{TB: tb, ClientNode: cNode, ServerNode: sNode}
	if err := tb.connectPairs("pair-setup", opts, 7000, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// ConnectExtraQP adds another connected RC QP between the pair's two nodes
// (Fig. 11's multi-QP scaling). port must be unique per call.
func (cp *ConnectedPair) ConnectExtraQP(opts EndpointOpts, port uint16) (client, server *Endpoint, err error) {
	extra := &ConnectedPair{TB: cp.TB, ClientNode: cp.ClientNode, ServerNode: cp.ServerNode}
	if err := cp.TB.connectPairs("extra-qp", opts, port, extra); err != nil {
		return nil, nil, err
	}
	return extra.Client, extra.Server, nil
}

// NewConnectedPairs builds n independent node pairs (client on host 0,
// server on host 1) in one testbed and connects each — the Fig. 19 VM-pair
// scaling fixture.
func NewConnectedPairs(cfg Config, mode Mode, n int) (*Testbed, []*ConnectedPair, error) {
	tb := New(cfg)
	const vni = 100
	tb.AddTenant(vni, "tenant")
	tb.AllowAll(vni)
	pairs := make([]*ConnectedPair, n)
	for i := 0; i < n; i++ {
		subnet, host := byte(1+i/100), byte((i%100)*2)
		cNode, err := tb.NewNode(mode, 0, vni, packet.NewIP(192, 168, subnet, host+1))
		if err != nil {
			return nil, nil, err
		}
		sNode, err := tb.NewNode(mode, 1, vni, packet.NewIP(192, 168, subnet, host+2))
		if err != nil {
			return nil, nil, err
		}
		pairs[i] = &ConnectedPair{TB: tb, ClientNode: cNode, ServerNode: sNode}
	}
	if err := tb.connectPairs("pairs-setup", DefaultEndpointOpts(), 7000, pairs...); err != nil {
		return nil, nil, err
	}
	return tb, pairs, nil
}

// connectPairs brings up one RC connection per pair, in order, on a proc
// named name: client Setup, server Setup, then the out-of-band exchange on
// port+i that takes both QPs to RTS. It fills in each pair's endpoints and
// drains the engine. It fails when a step fails, or when the proc never
// finishes: a crashed peer or a dark controller can park it for good.
func (tb *Testbed) connectPairs(name string, opts EndpointOpts, port uint16, pairs ...*ConnectedPair) error {
	var err error
	finished := false
	tb.Eng.Spawn(name, func(p *simtime.Proc) {
		defer func() { finished = true }()
		for i, cp := range pairs {
			if cp.Client, err = cp.ClientNode.Setup(p, opts); err != nil {
				return
			}
			if cp.Server, err = cp.ServerNode.Setup(p, opts); err != nil {
				return
			}
			se, ce := Pair(tb.Eng, cp.Server, cp.Client, port+uint16(i))
			if err = se.Wait(p); err != nil {
				return
			}
			if err = ce.Wait(p); err != nil {
				return
			}
		}
	})
	tb.Eng.Run()
	if !finished {
		return fmt.Errorf("cluster: %s stalled (pending: %v)", name, tb.Eng.PendingProcs())
	}
	return err
}
