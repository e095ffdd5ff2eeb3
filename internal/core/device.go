package core

import (
	"repro/internal/mempool"
	"repro/internal/nic"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Device wraps a NIC port with the MoonGen device API surface
// (Listing 1: device.config, getTxQueue, getRxQueue, setRate).
type Device struct {
	*nic.Port
}

// DeviceConfig mirrors device.config(port, rxQueues, txQueues); a
// device has one receive queue.
type DeviceConfig struct {
	Profile  nic.Profile
	ID       int
	TxQueues int
	// DriftPPM desynchronizes this device's PTP clock (for drift
	// experiments; 0 for none).
	DriftPPM float64
	// RxRing/TxRing override descriptor ring sizes.
	RxRing int
	TxRing int
	// RxPool overrides the receive pool size.
	RxPool int
}

// ConfigDevice creates and configures a device on the app's testbed.
func (a *App) ConfigDevice(cfg DeviceConfig) *Device {
	port := nic.NewPort(a.Eng, nic.PortConfig{
		Profile:       cfg.Profile,
		ID:            cfg.ID,
		TxQueues:      cfg.TxQueues,
		RxRingSize:    cfg.RxRing,
		TxRingSize:    cfg.TxRing,
		RxPoolSize:    cfg.RxPool,
		ClockDriftPPM: cfg.DriftPPM,
	})
	return &Device{Port: port}
}

// ConnectDevices cables two devices together (both directions) with the
// given PHY and cable length — the physical testbed setup step.
func (a *App) ConnectDevices(x, y *Device, phy wire.PHYProfile, lengthM float64) {
	nic.ConnectDuplex(a.Eng, x.Port, y.Port, phy, lengthM)
}

// CreateMemPool mirrors memory.createMemPool(prefillFn): every buffer
// runs the callback once at creation (Listing 2 lines 3-12).
func CreateMemPool(count int, prefill func(buf *mempool.Mbuf)) *mempool.Pool {
	return mempool.New(mempool.Config{Count: count, Prefill: prefill})
}

// CreateSizedMemPool is CreateMemPool with an explicit per-buffer data
// room. Workloads that only ever emit small frames (the 60-124 B
// packets of the scaling experiments) size their pools to the packet
// instead of the default 2 kB room: buffer contents and simulated
// behavior are identical, but creating the pool allocates and zeroes an
// order of magnitude less memory — which is what the slab zeroing cost
// of a many-pool experiment run is made of.
func CreateSizedMemPool(count, bufSize int, prefill func(buf *mempool.Mbuf)) *mempool.Pool {
	return mempool.New(mempool.Config{Count: count, BufSize: bufSize, Prefill: prefill})
}

// UDPFlood is the Listing 2 loadSlave as a reusable task body: a
// BurstTx over a prefilled pool whose frame hook randomizes the source
// IP and patches both checksums (proto.UDPPacket.PatchSrc, or
// proto.TCPPacket.PatchSrc for a TCP template), requesting NIC offload
// only on a buffer's first use. Stop via the app run limit.
type UDPFlood struct {
	Queue   *nic.TxQueue
	PktSize int
	BaseIP  proto.IPv4
	// Randomize is the number of low source-IP values to cycle through
	// (default 256, as in §5.2's comparison).
	Randomize int
	// Pool must be prefilled with the packet template.
	Pool *mempool.Pool
	// Batch is the bufArray size (default DefaultTxBatch).
	Batch int

	// Sent counts transmitted packets.
	Sent uint64
}

// Run executes the flood until the run ends.
func (u *UDPFlood) Run(t *Task) {
	randomize := u.Randomize
	if randomize <= 0 {
		randomize = 256
	}
	rng := t.Engine().Rand()
	b := &BurstTx{Queue: u.Queue, Bufs: u.Pool.BufArray(txBatch(u.Batch)), Size: u.PktSize,
		Frame: func(m *mempool.Mbuf, _ uint64) {
			b, src := m.Payload(), u.BaseIP+proto.IPv4(rng.Intn(randomize))
			if proto.IPv4Hdr(b[proto.EthHdrLen:]).Protocol() == proto.IPProtoTCP {
				if !(proto.TCPPacket{B: b}).PatchSrc(src) {
					m.TxMeta.OffloadIPChecksum = true
					m.TxMeta.OffloadTCPChecksum = true
				}
			} else if !(proto.UDPPacket{B: b}).PatchSrc(src) {
				m.TxMeta.OffloadIPChecksum = true
				m.TxMeta.OffloadUDPChecksum = true
			}
		}}
	b.Run(t)
	u.Sent = b.Sent
}
