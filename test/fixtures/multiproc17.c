float g0[256];
float g1[256];
float g2[256];
float g3[256];
float g4[256];
float gsum;
float leaf0(float x) { return x * 0.62500000000000f + 0.37500000000000f; }
float leaf1(float x) { return x * 0.25000000000000f + 0.25000000000000f; }
void kern0(float *d, float *s, int n, int off)
{ int i; float acc; acc = 0.0f;
  for (i = 0; i < n; i++) acc = acc + s[i + off] * 0.37500000000000f;
  gsum = gsum + acc; d[0] = acc; }
void kern1(float *d, float *s, int n, int off)
{ s = s + off; for (; n; n--) *d++ = *s++ * 0.62500000000000f; }
void kern2(float *d, float *s, int n, int off)
{ int i; for (i = 0; i < n; i++) d[i] = leaf0(s[i + off]) * 0.87500000000000f; }
void kern3(float *d, float *s, int n, int off)
{ int i, j;
  for (j = 0; j < 3; j++)
    for (i = 0; i < n; i++) d[i] = d[i] * 0.25000000000000f + s[i + off]; }
void kern4(float *d, float *s, int n, int off)
{ int i; for (i = 0; i < n; i++) d[i] = leaf1(s[i + off]) * 0.37500000000000f; }
void kern5(float *d, float *s, int n, int off)
{ int i; for (i = off + 1; i < n; i++) d[i] = d[i - off - 1] * 0.87500000000000f + s[i]; }
void chain0_7(float *p, float *q, int n)
{
  kern0(p, q, n, 3);
}
void chain0_6(float *p, float *q, int n)
{
  kern1(p, q, n, 2);
  chain0_7(q, p, n - 2);
}
void chain0_5(float *p, float *q, int n)
{
  kern2(p, q, n, 2);
  chain0_6(q, p, n - 2);
}
void chain0_4(float *p, float *q, int n)
{
  kern3(p, q, n, 1);
  chain0_5(q, p, n - 2);
}
void chain0_3(float *p, float *q, int n)
{
  kern4(p, q, n, 0);
  chain0_4(q, p, n - 2);
}
void chain0_2(float *p, float *q, int n)
{
  kern5(p, q, n, 2);
  chain0_3(q, p, n - 2);
}
void chain0_1(float *p, float *q, int n)
{
  kern0(p, q, n, 3);
  chain0_2(q, p, n - 2);
}
void chain0_0(float *p, float *q, int n)
{
  kern1(p, q, n, 1);
  chain0_1(q, p, n - 2);
}
int main()
{
  int i;
  float s;
  for (i = 0; i < 256; i++) {
    g0[i] = i * 0.02343750000000f + 0.62500000000000f;
    g1[i] = i * 0.02343750000000f + 0.25000000000000f;
    g2[i] = i * 0.01562500000000f + 0.37500000000000f;
    g3[i] = i * 0.05468750000000f + 0.37500000000000f;
    g4[i] = i * 0.00781250000000f + 0.12500000000000f;
  }
  chain0_0(g2, g3, 25);
  s = gsum;
  for (i = 0; i < 256; i++) s = s + g0[i];
  for (i = 0; i < 256; i++) s = s + g1[i];
  for (i = 0; i < 256; i++) s = s + g2[i];
  for (i = 0; i < 256; i++) s = s + g3[i];
  for (i = 0; i < 256; i++) s = s + g4[i];
  printf("%g\n", s);
  return 0;
}
