// Package mem models the memory system of the simulated testbed: host
// physical memory with capacity accounting, and layered virtual address
// spaces (guest-virtual → guest-physical → host-virtual → host-physical)
// with page tables, demand-backed storage, translation walks and pinning.
//
// The layering mirrors Appendix B of the MasQ paper: an application buffer
// in a VM is reached by GVA→GPA (guest page table), GPA→HVA (QEMU mapping)
// and HVA→HPA (host page table), and registering a memory region pins the
// pages and records the VA→HPA extents in the RNIC's MTT. Data held in
// these spaces is real — a DMA by the simulated RNIC moves actual bytes —
// but physical pages are allocated lazily so a simulated 96 GB host does
// not consume 96 GB of real memory.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Common errors.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadAddress  = errors.New("mem: address not mapped")
	ErrNotPinned   = errors.New("mem: page not pinned")
)

// Memory is a byte-addressable address space.
type Memory interface {
	// Read copies len(b) bytes starting at addr into b.
	Read(addr uint64, b []byte) error
	// Write copies b into the space starting at addr.
	Write(addr uint64, b []byte) error
}

// Phys is host physical memory: a capacity-accounted, demand-backed page
// store addressed by host physical address (HPA).
type Phys struct {
	capacity uint64
	reserved uint64 // bytes claimed by Reserve (VM RAM, overheads)
	nextPage uint64 // bump allocator for page frames
	pages    map[uint64][]byte
}

// NewPhys returns physical memory with the given capacity in bytes.
func NewPhys(capacity uint64) *Phys {
	return &Phys{capacity: capacity, nextPage: 1, pages: make(map[uint64][]byte)}
}

// Reserved returns the bytes currently accounted as in use.
func (p *Phys) Reserved() uint64 { return p.reserved }

// Free returns the unreserved capacity in bytes.
func (p *Phys) Free() uint64 { return p.capacity - p.reserved }

// Reserve accounts n bytes as used (e.g. a VM's RAM plus hypervisor
// overhead). It fails with ErrOutOfMemory when capacity is exhausted.
func (p *Phys) Reserve(n uint64) error {
	if p.reserved+n > p.capacity {
		return fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, n, p.Free())
	}
	p.reserved += n
	return nil
}

// Release returns n reserved bytes.
func (p *Phys) Release(n uint64) {
	if n > p.reserved {
		n = p.reserved
	}
	p.reserved -= n
}

// AllocPages allocates n physical page frames and returns the HPA of the
// first; frames are contiguous. The bytes are zeroed on first touch.
func (p *Phys) AllocPages(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: AllocPages(%d)", n)
	}
	hpa := p.nextPage * PageSize
	p.nextPage += uint64(n)
	return hpa, nil
}

func (p *Phys) page(hpa uint64) []byte {
	pn := hpa / PageSize
	pg := p.pages[pn]
	if pg == nil {
		pg = make([]byte, PageSize)
		p.pages[pn] = pg
	}
	return pg
}

// Read implements Memory.
func (p *Phys) Read(addr uint64, b []byte) error {
	for len(b) > 0 {
		pg := p.page(addr)
		off := addr % PageSize
		n := copy(b, pg[off:])
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Write implements Memory.
func (p *Phys) Write(addr uint64, b []byte) error {
	for len(b) > 0 {
		pg := p.page(addr)
		off := addr % PageSize
		n := copy(pg[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// pte is a page-table entry.
type pte struct {
	lower  uint64 // page number in the parent space
	pinned int    // pin reference count
}

// AddrSpace is a virtual address space layered over a parent Memory via a
// page table. Chaining AddrSpaces models GVA→GPA→HVA→HPA.
type AddrSpace struct {
	name   string
	parent Memory
	pt     map[uint64]*pte // virtual page number → entry
	next   uint64          // bump allocator for virtual pages
	alloc  func(pages int) (uint64, error)
}

// NewAddrSpace returns an empty space over parent. alloc allocates backing
// pages in the parent space (e.g. Phys.AllocPages, or a nested
// AddrSpace.AllocBacking). name is used in diagnostics.
func NewAddrSpace(name string, parent Memory, alloc func(pages int) (uint64, error)) *AddrSpace {
	return &AddrSpace{name: name, parent: parent, pt: make(map[uint64]*pte), next: 1, alloc: alloc}
}

// Name returns the space's diagnostic name.
func (s *AddrSpace) Name() string { return s.name }

// Map establishes va→parentAddr for n pages. Both addresses must be
// page-aligned.
func (s *AddrSpace) Map(va, parentAddr uint64, pages int) error {
	if va%PageSize != 0 || parentAddr%PageSize != 0 {
		return fmt.Errorf("mem: %s: unaligned Map(%#x, %#x)", s.name, va, parentAddr)
	}
	for i := 0; i < pages; i++ {
		s.pt[va/PageSize+uint64(i)] = &pte{lower: parentAddr/PageSize + uint64(i)}
	}
	return nil
}

// Alloc allocates size bytes of backed virtual memory and returns its VA.
func (s *AddrSpace) Alloc(size int) (uint64, error) {
	pages := (size + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	base, err := s.alloc(pages)
	if err != nil {
		return 0, err
	}
	va := s.next * PageSize
	s.next += uint64(pages)
	if err := s.Map(va, base, pages); err != nil {
		return 0, err
	}
	return va, nil
}

// AllocBacking allocates pages in this space and returns their base VA, for
// use as the backing allocator of a child space.
func (s *AddrSpace) AllocBacking(pages int) (uint64, error) {
	return s.Alloc(pages * PageSize)
}

// Translate walks the page table for a single address.
func (s *AddrSpace) Translate(va uint64) (uint64, error) {
	e, ok := s.pt[va/PageSize]
	if !ok {
		return 0, fmt.Errorf("%w: %s VA %#x", ErrBadAddress, s.name, va)
	}
	return e.lower*PageSize + va%PageSize, nil
}

// Extent is a contiguous range in a parent address space.
type Extent struct {
	Addr uint64
	Len  int
}

// TranslateRange resolves [va, va+size) into parent-space extents, merging
// physically contiguous pages.
func (s *AddrSpace) TranslateRange(va uint64, size int) ([]Extent, error) {
	var out []Extent
	for size > 0 {
		pa, err := s.Translate(va)
		if err != nil {
			return nil, err
		}
		n := PageSize - int(va%PageSize)
		if n > size {
			n = size
		}
		if len(out) > 0 && out[len(out)-1].Addr+uint64(out[len(out)-1].Len) == pa {
			out[len(out)-1].Len += n
		} else {
			out = append(out, Extent{Addr: pa, Len: n})
		}
		va += uint64(n)
		size -= n
	}
	return out, nil
}

// Pin increments the pin count of every page in [va, va+size), preventing
// remapping, and returns the parent-space extents (what a driver would feed
// into an MTT).
func (s *AddrSpace) Pin(va uint64, size int) ([]Extent, error) {
	ext, err := s.TranslateRange(va, size)
	if err != nil {
		return nil, err
	}
	for p := va / PageSize; p <= (va+uint64(size)-1)/PageSize; p++ {
		s.pt[p].pinned++
	}
	return ext, nil
}

// PinToPhys pins [va, va+size) in this space and every space below it,
// resolving the extents all the way down to the bottom Memory (host
// physical addresses). This is what a driver does before programming an
// MTT: MasQ's backend walks GVA→GPA→HVA→HPA exactly this way (Appendix B).
func (s *AddrSpace) PinToPhys(va uint64, size int) ([]Extent, error) {
	ext, err := s.Pin(va, size)
	if err != nil {
		return nil, err
	}
	parent, ok := s.parent.(*AddrSpace)
	if !ok {
		return ext, nil
	}
	var out []Extent
	for _, e := range ext {
		sub, err := parent.PinToPhys(e.Addr, e.Len)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// UnpinToPhys reverses PinToPhys: it releases the pins of [va, va+size)
// in this space and every space below it.
func (s *AddrSpace) UnpinToPhys(va uint64, size int) error {
	ext, err := s.TranslateRange(va, size)
	if err != nil {
		return err
	}
	if err := s.Unpin(va, size); err != nil {
		return err
	}
	if parent, ok := s.parent.(*AddrSpace); ok {
		for _, e := range ext {
			if err := parent.UnpinToPhys(e.Addr, e.Len); err != nil {
				return err
			}
		}
	}
	return nil
}

// Unpin decrements pin counts for [va, va+size).
func (s *AddrSpace) Unpin(va uint64, size int) error {
	for p := va / PageSize; p <= (va+uint64(size)-1)/PageSize; p++ {
		e, ok := s.pt[p]
		if !ok {
			return fmt.Errorf("%w: %s VA page %#x", ErrBadAddress, s.name, p*PageSize)
		}
		if e.pinned == 0 {
			return fmt.Errorf("%w: %s VA page %#x", ErrNotPinned, s.name, p*PageSize)
		}
		e.pinned--
	}
	return nil
}

// Pinned reports whether any page in the space is currently pinned.
// Pinned (DMA-visible) memory cannot be migrated — the reason RDMA live
// migration needs application assistance (Sec. 5 of the MasQ paper).
func (s *AddrSpace) Pinned() bool {
	for _, e := range s.pt {
		if e.pinned > 0 {
			return true
		}
	}
	return false
}

// MappedPages returns the mapped virtual page numbers, sorted.
func (s *AddrSpace) MappedPages() []uint64 {
	pages := make([]uint64, 0, len(s.pt))
	for p := range s.pt {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// MappedBytes returns the total bytes mapped in the space — the image
// size a migration's pre-copy has to move.
func (s *AddrSpace) MappedBytes() uint64 {
	return uint64(len(s.pt)) * PageSize
}

// Rehome moves the space's backing into a new parent space *in place*:
// for every mapped page, fresh backing is allocated in parent, the bytes
// are copied across, and the page-table entry is rewritten. The AddrSpace
// object itself — and therefore every child space layered on top of it —
// survives with its virtual addresses intact. This is the stop-copy of a
// transparent live migration: the guest-physical space is re-homed from
// the source host's userspace to the destination's, and the guest-virtual
// space above it never notices. It refuses while any page of *this* space
// is pinned (DMA-visible pages must be unpinned first); pins held in
// child spaces are unaffected and remain valid.
func (s *AddrSpace) Rehome(parent *AddrSpace) error {
	if s.Pinned() {
		return fmt.Errorf("mem: %s: cannot rehome pinned (DMA-registered) memory", s.name)
	}
	buf := make([]byte, PageSize)
	pages := s.MappedPages()
	bases := make([]uint64, len(pages))
	for i, vp := range pages {
		base, err := parent.AllocBacking(1)
		if err != nil {
			return err
		}
		if err := s.Read(vp*PageSize, buf); err != nil {
			return err
		}
		if err := parent.Write(base, buf); err != nil {
			return err
		}
		bases[i] = base
	}
	// Commit: every page copied, now flip the table and the parent link.
	for i, vp := range pages {
		s.pt[vp].lower = bases[i] / PageSize
	}
	s.parent = parent
	s.alloc = parent.AllocBacking
	return nil
}

// Read implements Memory, walking the page table per page.
func (s *AddrSpace) Read(addr uint64, b []byte) error {
	for len(b) > 0 {
		pa, err := s.Translate(addr)
		if err != nil {
			return err
		}
		n := PageSize - int(addr%PageSize)
		if n > len(b) {
			n = len(b)
		}
		if err := s.parent.Read(pa, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Write implements Memory, walking the page table per page.
func (s *AddrSpace) Write(addr uint64, b []byte) error {
	for len(b) > 0 {
		pa, err := s.Translate(addr)
		if err != nil {
			return err
		}
		n := PageSize - int(addr%PageSize)
		if n > len(b) {
			n = len(b)
		}
		if err := s.parent.Write(pa, b[:n]); err != nil {
			return err
		}
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}
