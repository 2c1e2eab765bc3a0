//! Photonic component models.
//!
//! Each component couples a *behavioural* model (how it transforms an optical
//! signal) with the *cost* model (power, area, loss) the architecture
//! simulator charges for it. Default parameters come from the paper's
//! Table 6 ("Power of active components and the area of photonic components
//! used in ReFOCUS") and Table 1 (delay-line geometry), reproduced here:
//!
//! | Component | Power | Area |
//! |---|---|---|
//! | MRR | 0.42 mW | 255 µm² |
//! | Laser (min) | 0.1 mW / waveguide | 1.2·10⁵ µm² |
//! | Photodetector | — (passive detect) | 1920 µm² |
//! | Y-junction | passive | 2.6 µm² |
//! | Delay line (0.1 ns) | passive | 10⁴ µm², 8.57 mm, 6.94·10⁻³ dB |
//! | Lens | passive | 2·10⁶ µm² |
//!
//! (The 8-bit converters — ADC @ 625 MHz: 0.93 mW, DAC @ 10 GHz: 35.71 mW —
//! are electronic and live in [`converter`], kept alongside so the whole
//! Table 6 is regenerable from one module tree.)

pub mod converter;
pub mod delay_line;
pub mod laser;
pub mod lens;
pub mod mrr;
pub mod photodetector;
pub mod slow_light;
pub mod y_junction;

pub use converter::{Adc, Dac};
pub use delay_line::DelayLine;
pub use laser::Laser;
pub use lens::Lens;
pub use mrr::Mrr;
pub use photodetector::Photodetector;
pub use slow_light::SlowLightDelayLine;
pub use y_junction::YJunction;
