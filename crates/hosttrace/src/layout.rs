//! The synthetic gem5 binary's text-segment layout and page backing.

/// Size of an x86-64 huge page.
pub const HUGE_PAGE: u64 = 2 * 1024 * 1024;

/// How the text segment is backed by virtual-memory pages — the paper's
/// Figs. 10–11 experiment (Intel iodlr THP remapping vs libhugetlbfs EHP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageBacking {
    /// Base pages only (the host's native page size).
    Base,
    /// Transparent huge pages via runtime remapping: covers a *subset* of
    /// the code segment (iodlr remaps "a subset of gem5's code", per the
    /// paper), given as a percentage.
    Thp {
        /// Percent of the text segment backed by 2 MB pages.
        coverage_pct: u8,
    },
    /// Explicit huge pages: the whole text segment.
    Ehp,
}

impl PageBacking {
    /// Default THP configuration (iodlr remaps a *subset* of the text —
    /// the paper measured a 63% average iTLB-overhead reduction, i.e.
    /// partial coverage).
    pub fn thp() -> Self {
        PageBacking::Thp { coverage_pct: 48 }
    }
}

/// The text segment of the simulator binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextLayout {
    /// Base virtual address of text.
    pub base: u64,
    /// Text size in bytes.
    pub size: u64,
    /// Page backing for text.
    pub backing: PageBacking,
}

impl TextLayout {
    /// Whether `addr` (must be within text) is backed by a huge page.
    pub fn is_huge_backed(&self, addr: u64) -> bool {
        match self.backing {
            PageBacking::Base => false,
            PageBacking::Ehp => true,
            PageBacking::Thp { coverage_pct } => {
                addr < self.base + self.size * coverage_pct as u64 / 100
            }
        }
    }

    /// Whether `addr` lies in the text segment.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }

    /// The page identifier for `addr` given the host's base page size.
    ///
    /// Huge-backed text collapses 2 MB of addresses onto one page id, so
    /// an iTLB entry covers 512× (4 KB hosts) more code.
    pub fn page_id(&self, addr: u64, host_page: u64) -> u64 {
        if self.contains(addr) && self.is_huge_backed(addr) {
            // Distinguish huge pages from base pages by a high tag bit.
            (addr / HUGE_PAGE) | (1 << 62)
        } else if host_page.is_power_of_two() {
            addr >> host_page.trailing_zeros()
        } else {
            addr / host_page
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(backing: PageBacking) -> TextLayout {
        TextLayout {
            base: 0x40_0000,
            size: 4 * 1024 * 1024,
            backing,
        }
    }

    #[test]
    fn base_pages_split_text_finely() {
        let l = layout(PageBacking::Base);
        assert!(!l.is_huge_backed(0x40_0000));
        assert_ne!(l.page_id(0x40_0000, 4096), l.page_id(0x40_1000, 4096));
    }

    #[test]
    fn ehp_covers_everything() {
        let l = layout(PageBacking::Ehp);
        assert!(l.is_huge_backed(l.base));
        assert!(l.is_huge_backed(l.base + l.size - 1));
        // Two addresses 1 MB apart share a huge page id.
        assert_eq!(
            l.page_id(0x40_0000, 4096),
            l.page_id(0x40_0000 + HUGE_PAGE / 2, 4096)
        );
    }

    #[test]
    fn thp_covers_a_prefix() {
        let l = layout(PageBacking::thp());
        assert!(l.is_huge_backed(l.base));
        assert!(!l.is_huge_backed(l.base + l.size - 1));
    }

    #[test]
    fn larger_host_pages_reduce_page_count() {
        let l = layout(PageBacking::Base);
        let pages_4k: std::collections::HashSet<u64> = (0..l.size)
            .step_by(4096)
            .map(|o| l.page_id(l.base + o, 4096))
            .collect();
        let pages_16k: std::collections::HashSet<u64> = (0..l.size)
            .step_by(4096)
            .map(|o| l.page_id(l.base + o, 16384))
            .collect();
        assert_eq!(pages_4k.len(), 4 * pages_16k.len());
    }

    #[test]
    fn non_text_addresses_use_base_pages_even_with_ehp() {
        let l = layout(PageBacking::Ehp);
        let heap = 0x10_0000_0000u64;
        assert_eq!(l.page_id(heap, 4096), heap / 4096);
    }
}
